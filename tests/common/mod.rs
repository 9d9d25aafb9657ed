//! Helpers shared by the suites that spawn the `aix` binary.

use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An `aix` command that runs in its own scratch working directory, with
/// its own cache and journal there, so no run writes into the repository
/// or shares files with another run. The directory is removed when the
/// command is dropped, so a spawned child must not outlive it.
pub struct Aix {
    command: Command,
    dir: PathBuf,
}

impl Deref for Aix {
    type Target = Command;

    fn deref(&self) -> &Command {
        &self.command
    }
}

impl DerefMut for Aix {
    fn deref_mut(&mut self) -> &mut Command {
        &mut self.command
    }
}

impl Drop for Aix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `aix` binary in a fresh scratch directory (see [`Aix`]).
pub fn aix() -> Aix {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aix-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch working directory");
    let mut command = Command::new(env!("CARGO_BIN_EXE_aix"));
    command
        .current_dir(&dir)
        .env("AIX_CACHE", dir.join("cache"))
        .env("AIX_JOURNAL", dir.join("journal"));
    Aix { command, dir }
}

/// The absolute path of a design in `tests/corpus/`.
#[allow(dead_code)]
pub fn corpus(name: &str) -> String {
    format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}
