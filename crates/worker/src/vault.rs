//! Shared object vault emulating durable storage.
//!
//! File commands (`LoadData`/`SaveData`) and checkpoints persist objects to
//! "durable storage". In the in-process reproduction that storage is a
//! process-wide key-value vault shared by every worker; a multi-machine
//! deployment would back the same interface with a distributed store.
//! Values are cloned application objects, so saving and loading does not
//! require the application to define a serialization format.
//!
//! For *multi-process* clusters the in-memory map dies with its process,
//! which would make every checkpoint entry saved by a killed worker
//! unrecoverable. [`ObjectVault::file_backed`] therefore additionally
//! persists each saved object's wire encoding
//! ([`AppData::to_wire`]/[`AppData::decode_wire`]) into a shared directory:
//! point every worker process at the same directory and a rejoining worker
//! can reload the checkpoints its previous incarnation saved.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use nimbus_core::appdata::AppData;

/// A process-wide store of named, cloned application objects, optionally
/// mirrored to a directory of wire-encoded files.
#[derive(Default)]
pub struct ObjectVault {
    objects: Mutex<HashMap<String, Box<dyn AppData>>>,
    dir: Option<PathBuf>,
}

impl ObjectVault {
    /// Creates an empty, purely in-memory vault.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vault that additionally mirrors every saved object's wire
    /// encoding into `dir` (created if missing). Multiple processes may
    /// share the directory; keys map to stable file names.
    pub fn file_backed(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            objects: Mutex::new(HashMap::new()),
            dir: Some(dir),
        })
    }

    /// The backing directory, if this vault is file-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn file_for(&self, key: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        // Keys like `ckpt/3/lo1/p0` become flat, filesystem-safe names.
        let name: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(name))
    }

    /// Stores a clone of `data` under `key`, replacing any previous value.
    /// File-backed vaults also persist the object's wire encoding (objects
    /// without one stay memory-only).
    pub fn put(&self, key: &str, data: Box<dyn AppData>) {
        if let (Some(path), Some(bytes)) = (self.file_for(key), data.to_wire()) {
            // Write-then-rename so a concurrent reader in another process
            // never observes a torn file.
            let tmp = path.with_extension("tmp");
            if std::fs::write(&tmp, &bytes).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        self.objects.lock().insert(key.to_string(), data);
    }

    /// Returns a clone of the object stored under `key` in this process's
    /// memory. Cross-process reads go through [`ObjectVault::get_bytes`].
    pub fn get(&self, key: &str) -> Option<Box<dyn AppData>> {
        self.objects.lock().get(key).map(|d| d.clone_box())
    }

    /// Returns the wire encoding stored under `key`: from the in-memory
    /// object if present, otherwise from the backing directory (an object
    /// saved by another — possibly dead — process).
    pub fn get_bytes(&self, key: &str) -> Option<Vec<u8>> {
        if let Some(data) = self.objects.lock().get(key) {
            if let Some(bytes) = data.to_wire() {
                return Some(bytes);
            }
        }
        std::fs::read(self.file_for(key)?).ok()
    }

    /// Returns true if `key` exists in memory or in the backing directory.
    pub fn contains(&self, key: &str) -> bool {
        self.objects.lock().contains_key(key)
            || self.file_for(key).map(|p| p.exists()).unwrap_or(false)
    }

    /// Removes a key (memory and backing file).
    pub fn delete(&self, key: &str) {
        self.objects.lock().remove(key);
        if let Some(path) = self.file_for(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Number of objects stored in this process's memory.
    pub fn len(&self) -> usize {
        self.objects.lock().len()
    }

    /// Returns true if the in-memory vault is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.lock().is_empty()
    }

    /// Total approximate bytes stored in memory.
    pub fn resident_bytes(&self) -> usize {
        self.objects.lock().values().map(|d| d.approx_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::{downcast_ref, VecF64};

    #[test]
    fn put_get_delete() {
        let vault = ObjectVault::new();
        assert!(vault.is_empty());
        vault.put("ckpt/1", Box::new(VecF64::new(vec![1.0, 2.0])));
        assert!(vault.contains("ckpt/1"));
        assert_eq!(vault.len(), 1);
        let data = vault.get("ckpt/1").unwrap();
        assert_eq!(
            downcast_ref::<VecF64>(data.as_ref()).unwrap().values,
            vec![1.0, 2.0]
        );
        assert!(vault.get("missing").is_none());
        vault.delete("ckpt/1");
        assert!(vault.is_empty());
    }

    #[test]
    fn get_returns_an_independent_clone() {
        let vault = ObjectVault::new();
        vault.put("k", Box::new(VecF64::new(vec![1.0])));
        let mut copy = vault.get("k").unwrap();
        nimbus_core::downcast_mut::<VecF64>(copy.as_mut())
            .unwrap()
            .values[0] = 9.0;
        let original = vault.get("k").unwrap();
        assert_eq!(
            downcast_ref::<VecF64>(original.as_ref()).unwrap().values,
            vec![1.0]
        );
    }

    #[test]
    fn resident_bytes_accounts_contents() {
        let vault = ObjectVault::new();
        vault.put("a", Box::new(VecF64::zeros(1000)));
        assert!(vault.resident_bytes() >= 8000);
    }

    /// The cross-process story: a save in one vault instance is readable as
    /// wire bytes from a *different* vault instance sharing the directory —
    /// exactly what a rejoining worker process does with checkpoints saved
    /// by its previous incarnation.
    #[test]
    fn file_backed_vault_survives_the_writing_instance() {
        // Unique per process and per call without reading the wall clock
        // (clippy.toml disallows `SystemTime::now` outside the Clock module).
        static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "nimbus-vault-test-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        // A recycled pid could collide with a crashed run's leftovers.
        std::fs::remove_dir_all(&dir).ok();
        {
            let vault = ObjectVault::file_backed(&dir).unwrap();
            vault.put("ckpt/1/lo1/p0", Box::new(VecF64::new(vec![3.0, -4.5])));
        } // The writing "process" dies here.
        let fresh = ObjectVault::file_backed(&dir).unwrap();
        assert!(fresh.get("ckpt/1/lo1/p0").is_none(), "memory died with it");
        assert!(fresh.contains("ckpt/1/lo1/p0"), "the file survived");
        let bytes = fresh.get_bytes("ckpt/1/lo1/p0").unwrap();
        let mut decoded = VecF64::default();
        AppData::decode_wire(&mut decoded, &bytes).unwrap();
        assert_eq!(decoded.values, vec![3.0, -4.5]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
