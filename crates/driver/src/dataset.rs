//! Typed datasets: the compile-time layer over [`DatasetHandle`].
//!
//! A [`Dataset<T>`] remembers the application data type its partitions hold.
//! Defining a dataset with [`Session::define_dataset::<T>`] makes the
//! partition type part of the driver's vocabulary:
//!
//! * the driver can only [`Session::fetch`] convergence scalars from
//!   datasets whose type is [`ScalarReadable`] (checked at compile time),
//! * `T` documents — and typed code over the dataset enforces — the type
//!   task functions downcast to with `read::<T>` / `write::<T>`.
//!
//! The link to the worker-side factory (`AppSetup::object::<T>`) remains
//! positional: dataset ids are assigned in definition order, and a mismatch
//! surfaces as a runtime downcast error inside task functions.
//!
//! The untyped [`DatasetHandle`] underneath stays reachable (through
//! [`Dataset::handle`]) for generic infrastructure such as the benchmark
//! harness; every stage-builder and fetch API accepts both through the
//! [`AsDataset`] trait.
//!
//! [`Session::define_dataset::<T>`]: crate::context::Session::define_dataset
//! [`Session::fetch`]: crate::context::Session::fetch

use std::marker::PhantomData;

use nimbus_core::appdata::AppData;
use nimbus_core::ids::{LogicalObjectId, LogicalPartition};

use crate::context::DatasetHandle;

/// A dataset whose partitions are known (at compile time) to hold `T`.
///
/// Dereferences to the underlying [`DatasetHandle`], so `.partitions`,
/// `.name`, and `.partition(i)` work unchanged.
pub struct Dataset<T: AppData> {
    handle: DatasetHandle,
    _partition_type: PhantomData<fn() -> T>,
}

impl<T: AppData> Dataset<T> {
    /// Wraps an untyped handle, asserting its partitions hold `T`.
    ///
    /// This is the escape hatch for code that holds a bare handle;
    /// [`Session::define_dataset`] is the checked path.
    ///
    /// [`Session::define_dataset`]: crate::context::Session::define_dataset
    pub fn from_handle(handle: DatasetHandle) -> Self {
        Self {
            handle,
            _partition_type: PhantomData,
        }
    }

    /// The untyped handle.
    pub fn handle(&self) -> &DatasetHandle {
        &self.handle
    }

    /// Unwraps into the untyped handle.
    pub fn into_handle(self) -> DatasetHandle {
        self.handle
    }

    /// The dataset's logical object identifier.
    pub fn id(&self) -> LogicalObjectId {
        self.handle.id
    }
}

impl<T: AppData> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Self {
            handle: self.handle.clone(),
            _partition_type: PhantomData,
        }
    }
}

impl<T: AppData> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dataset<{}>({:?})",
            std::any::type_name::<T>(),
            self.handle
        )
    }
}

impl<T: AppData> std::ops::Deref for Dataset<T> {
    type Target = DatasetHandle;
    fn deref(&self) -> &DatasetHandle {
        &self.handle
    }
}

/// Anything that names a dataset: a typed [`Dataset<T>`] or a raw
/// [`DatasetHandle`]. Stage builders and fetches accept either.
pub trait AsDataset {
    /// The underlying untyped handle.
    fn dataset_handle(&self) -> &DatasetHandle;

    /// The logical partition at `index`.
    fn dataset_partition(&self, index: u32) -> LogicalPartition {
        self.dataset_handle().partition(index)
    }
}

impl AsDataset for DatasetHandle {
    fn dataset_handle(&self) -> &DatasetHandle {
        self
    }
}

impl<T: AppData> AsDataset for Dataset<T> {
    fn dataset_handle(&self) -> &DatasetHandle {
        &self.handle
    }
}

impl<D: AsDataset + ?Sized> AsDataset for &D {
    fn dataset_handle(&self) -> &DatasetHandle {
        (**self).dataset_handle()
    }
}

// The compile-time gate for typed fetches lives in `nimbus-core::appdata`,
// next to the `AppData::scalar_value` overrides it mirrors, so the two lists
// cannot drift apart.
pub use nimbus_core::appdata::ScalarReadable;

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::appdata::{Scalar, VecF64};

    fn handle() -> DatasetHandle {
        DatasetHandle {
            id: LogicalObjectId(3),
            name: "grid".to_string(),
            partitions: 4,
        }
    }

    #[test]
    fn typed_dataset_derefs_to_handle() {
        let d: Dataset<VecF64> = Dataset::from_handle(handle());
        assert_eq!(d.partitions, 4);
        assert_eq!(d.name, "grid");
        assert_eq!(d.id(), LogicalObjectId(3));
        assert_eq!(d.partition(2), handle().partition(2));
        assert!(format!("{d:?}").contains("VecF64"));
    }

    #[test]
    fn as_dataset_accepts_both_layers() {
        fn partitions_of(d: &impl AsDataset) -> u32 {
            d.dataset_handle().partitions
        }
        let raw = handle();
        let typed: Dataset<Scalar> = Dataset::from_handle(handle());
        assert_eq!(partitions_of(&raw), 4);
        assert_eq!(partitions_of(&typed), 4);
        assert_eq!(partitions_of(&&typed), 4);
    }
}
