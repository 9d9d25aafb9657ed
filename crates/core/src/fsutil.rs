//! Crash-safe filesystem helpers shared by the characterization cache and
//! the CLI's benchmark log.

use aix_faults::{FaultPlan, FaultStage, WriteFault};
use std::io;
use std::path::Path;

/// Writes `text` to `path` atomically: the bytes land in a temp file in the
/// same directory (created if absent), are fsynced, and the temp is then
/// renamed over the target, so neither a killed run nor a power loss can
/// leave a truncated file behind — readers observe either the old contents
/// or the new ones. (Without the fsync, a crash after the rename could
/// expose a renamed-but-empty file on filesystems that reorder data and
/// metadata writes.)
///
/// Injected `shortwrite`/`enospc` faults of `plan` (stage `cache`, the
/// persistence path, at the file's name as site) are emulated faithfully
/// here: a short write persists a prefix of the *temp* file and fails
/// before the rename, an ENOSPC fails before writing anything. Either
/// way the previous contents of `path` stay intact.
///
/// # Errors
///
/// Returns I/O errors from the filesystem, or the injected fault.
pub fn write_atomic(path: &Path, text: &str, plan: Option<&FaultPlan>) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if let Some(plan) = plan {
        let site = path.file_name().and_then(|n| n.to_str()).unwrap_or("write");
        match plan.write_fault(FaultStage::Cache, site) {
            Some(WriteFault::Enospc) => {
                return Err(io::Error::other(format!(
                    "injected fault: no space left writing `{site}`"
                )));
            }
            Some(WriteFault::Short) => {
                // A torn write: only a prefix of the payload reaches the
                // temp file and the rename never happens — readers of
                // `path` keep seeing the previous complete contents.
                std::fs::write(&tmp, &text.as_bytes()[..text.len() / 2])?;
                return Err(io::Error::other(format!(
                    "injected fault: short write writing `{site}`"
                )));
            }
            None => {}
        }
    }
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_contents_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("aix-fsutil-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("file.txt");
        write_atomic(&path, "first", None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second", None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let siblings: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "no temp file left: {siblings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_fault_leaves_previous_file_intact() {
        let dir = std::env::temp_dir().join(format!("aix-fsutil-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("library.txt");
        let plan: FaultPlan = "shortwrite:p=1,stage=cache".parse().unwrap();

        // First write under the fault: it fails and nothing readable
        // appears at the target path.
        let payload = "entry 8 fresh 1.234567\nentry 8 wc:10 2.345678\n";
        let err = write_atomic(&path, payload, Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("short write"));
        assert!(!path.exists(), "no torn file visible at the target path");

        // Seed good contents without the fault, then tear a rewrite: the
        // reader must still observe the complete old contents, even though
        // the torn temp file holds only a prefix of the new payload.
        write_atomic(&path, "old complete contents\n", None).unwrap();
        let update = "new contents that will be torn mid-write\n";
        let err = write_atomic(&path, update, Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("short write"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "old complete contents\n"
        );
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let torn = std::fs::read_to_string(&tmp).unwrap();
        assert_eq!(torn, &update[..update.len() / 2], "temp holds a prefix");

        // A fault-free rewrite recovers cleanly over the torn temp.
        write_atomic(&path, update, None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), update);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_fault_fails_before_touching_anything() {
        let dir = std::env::temp_dir().join(format!("aix-fsutil-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cache.lib");
        write_atomic(&path, "previous\n", None).unwrap();

        let plan: FaultPlan = "enospc:p=1".parse().unwrap();
        let err = write_atomic(&path, "next\n", Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("no space left"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "previous\n");
        let siblings: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "no temp file written: {siblings:?}");

        // Stage filters apply: an STA-stage-only plan leaves writes alone.
        let staged: FaultPlan = "enospc:p=1,stage=sta".parse().unwrap();
        write_atomic(&path, "cached\n", Some(&staged)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "cached\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
