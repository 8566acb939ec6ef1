//! Shared by the integration tests that drive the real binary.

/// The `clugp-part` binary the process-level integration tests drive,
/// looked up in the target directory of the running test binary. `cargo
/// test` at the root does not rebuild a workspace member's bins, so the
/// one beside the test binary may predate the source; tier-1 builds the
/// release profile first. Takes whichever profile was built last; `None`
/// when neither was (the callers skip with a note).
pub fn clugp_part_exe() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let target = dir.parent()?;
    ["debug", "release"]
        .iter()
        .map(|profile| {
            target
                .join(profile)
                .join(format!("clugp-part{}", std::env::consts::EXE_SUFFIX))
        })
        .filter(|exe| exe.exists())
        .max_by_key(|exe| exe.metadata().and_then(|m| m.modified()).ok())
}
