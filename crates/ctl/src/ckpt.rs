//! Crash-safe checkpoint persistence.
//!
//! The pre-durability writer was a bare `std::fs::write`: a crash (or
//! `SIGKILL`) mid-write left a torn file at the *only* copy of the
//! daemon's state. This module writes checkpoints atomically — the new
//! bytes land in a sibling temp file, are fsynced, and are renamed over
//! the target, so at every instant the checkpoint path holds either the
//! complete previous checkpoint or the complete new one, never a mix.
//!
//! On unix the parent directory is fsynced after the rename, making the
//! name swap itself durable across power loss, not just process death.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The sibling temp path the new checkpoint is staged at: same
/// directory (renames must not cross filesystems), name suffixed with
/// the writer's PID so concurrent daemons pointed at the same path
/// cannot trample each other's staging file.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: write to a temp sibling,
/// `fsync`, `rename`, then `fsync` the directory. A reader (or a
/// restarted daemon) can never observe a partially written file through
/// `path` — torn state is confined to the staging file, which a failed
/// attempt leaves behind for the next successful write to replace.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directory fsync is best-effort: some filesystems refuse it,
        // and the rename itself already happened.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("farm-atomic-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_replaces_previous_content_atomically() {
        let path = scratch("replace");
        let _ = fs::remove_file(&path);
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer payload");
        assert!(
            !staging_path(&path).exists(),
            "staging file must not linger"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_write_leaves_no_staging_file() {
        // A directory that does not exist: File::create fails, and the
        // staging path must not be left behind (it was never created).
        let path = scratch("no-such-dir/file");
        assert!(write_atomic(&path, b"x").is_err());
        assert!(!staging_path(&path).exists());
    }
}
