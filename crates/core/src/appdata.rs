//! Application data objects.
//!
//! Workers hold application data in mutable, in-place-updatable objects
//! (Section 3.3). The control plane never inspects their contents; it only
//! needs to clone them for copies, move them between workers, and estimate
//! their size for traffic accounting. [`AppData`] is the minimal trait that
//! supports those operations while letting applications use arbitrary Rust
//! types for their partitions.

use std::any::Any;

/// A type-erased, clonable application data object.
pub trait AppData: Any + Send {
    /// Upcasts to [`Any`] for downcasting to the concrete type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Clones the object into a new boxed instance (used by copy commands).
    fn clone_box(&self) -> Box<dyn AppData>;

    /// Approximate in-memory / on-wire size in bytes, used for data-plane
    /// traffic accounting. Implementations should count heap contents, not
    /// just the struct header.
    fn approx_size(&self) -> usize;

    /// Short type label used in traces and error messages.
    fn type_label(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// The value reported for driver `FetchValue` requests, if this type has
    /// a scalar projection. Types without one (the default) make fetches of
    /// their datasets report `NaN`; implement this together with
    /// [`ScalarReadable`] so the driver-side compile-time gate and the
    /// worker-side runtime projection stay in sync.
    fn scalar_value(&self) -> Option<f64> {
        None
    }

    /// Serializes the object's contents for a cross-process data transfer,
    /// or `None` if this type cannot leave the process (the default). The
    /// in-process transport hands objects over directly and never calls
    /// this; the TCP transport requires it for worker-to-worker copies.
    fn to_wire(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces this object's contents from bytes produced by
    /// [`AppData::to_wire`] on another instance of the same concrete type.
    /// The receiving worker always holds an already-created object (the
    /// controller issues `CreateData` before any copy), so decoding is
    /// in-place rather than constructing.
    fn decode_wire(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "{} does not support cross-process transfers (no decode_wire)",
            self.type_label()
        ))
    }
}

/// Marker for application data types whose [`AppData::scalar_value`] is
/// meaningful: the driver's typed `fetch` only compiles for datasets of
/// these types. Implementations live next to their `scalar_value` overrides
/// in this module so the two lists cannot drift apart.
pub trait ScalarReadable: AppData {}

impl ScalarReadable for Scalar {}
impl ScalarReadable for VecF64 {}

impl Clone for Box<dyn AppData> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for Box<dyn AppData> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AppData<{}>({} bytes)",
            self.type_label(),
            self.approx_size()
        )
    }
}

/// Implements [`AppData`] for a concrete `Clone` type.
///
/// The optional second argument is an expression computing the approximate
/// size from `self`; it defaults to `std::mem::size_of::<T>()`.
///
/// # Examples
///
/// ```
/// use nimbus_core::impl_app_data;
///
/// #[derive(Clone)]
/// struct Partition { values: Vec<f64> }
///
/// impl_app_data!(Partition, |p: &Partition| {
///     p.values.len() * 8 + std::mem::size_of::<Partition>()
/// });
/// ```
#[macro_export]
macro_rules! impl_app_data {
    ($ty:ty) => {
        $crate::impl_app_data!($ty, |_x| std::mem::size_of::<$ty>());
    };
    ($ty:ty, $size:expr) => {
        impl $crate::appdata::AppData for $ty {
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }

            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }

            fn clone_box(&self) -> Box<dyn $crate::appdata::AppData> {
                Box::new(self.clone())
            }

            fn approx_size(&self) -> usize {
                #[expect(
                    clippy::redundant_closure_call,
                    reason = "`$size` is written as a closure at the call site"
                )]
                ($size)(self)
            }
        }
    };
}

/// A plain vector of `f64` values: the workhorse partition type used by the
/// built-in workloads (gradients, coefficients, centroids, error cells).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VecF64 {
    /// The values held by this partition.
    pub values: Vec<f64>,
}

impl VecF64 {
    /// Creates a partition holding `values`.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Creates a zero-filled partition of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }
}

impl AppData for VecF64 {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn AppData> {
        Box::new(self.clone())
    }

    fn approx_size(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>() + std::mem::size_of::<VecF64>()
    }

    fn scalar_value(&self) -> Option<f64> {
        self.values.first().copied()
    }

    fn to_wire(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.values.len() * 8);
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Some(out)
    }

    fn decode_wire(&mut self, bytes: &[u8]) -> Result<(), String> {
        if !bytes.len().is_multiple_of(8) {
            return Err(format!("VecF64 wire payload of {} bytes", bytes.len()));
        }
        self.values = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Ok(())
    }
}

/// A single scalar value, used for reduced globals such as error terms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Scalar {
    /// The scalar value.
    pub value: f64,
}

impl Scalar {
    /// Creates a scalar.
    pub fn new(value: f64) -> Self {
        Self { value }
    }
}

impl AppData for Scalar {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn AppData> {
        Box::new(*self)
    }

    fn approx_size(&self) -> usize {
        std::mem::size_of::<Scalar>()
    }

    fn scalar_value(&self) -> Option<f64> {
        Some(self.value)
    }

    fn to_wire(&self) -> Option<Vec<u8>> {
        Some(self.value.to_le_bytes().to_vec())
    }

    fn decode_wire(&mut self, bytes: &[u8]) -> Result<(), String> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| format!("Scalar wire payload of {} bytes", bytes.len()))?;
        self.value = f64::from_le_bytes(arr);
        Ok(())
    }
}

/// Downcasts a boxed [`AppData`] reference to a concrete type.
pub fn downcast_ref<T: 'static>(data: &dyn AppData) -> Option<&T> {
    data.as_any().downcast_ref::<T>()
}

/// Mutable downcast of an [`AppData`] reference to a concrete type.
pub fn downcast_mut<T: 'static>(data: &mut dyn AppData) -> Option<&mut T> {
    data.as_any_mut().downcast_mut::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecf64_roundtrip_through_trait_object() {
        let boxed: Box<dyn AppData> = Box::new(VecF64::new(vec![1.0, 2.0, 3.0]));
        let cloned = boxed.clone();
        let back = downcast_ref::<VecF64>(cloned.as_ref()).unwrap();
        assert_eq!(back.values, vec![1.0, 2.0, 3.0]);
        assert!(cloned.approx_size() >= 24);
    }

    #[test]
    fn downcast_mut_mutates_in_place() {
        let mut boxed: Box<dyn AppData> = Box::new(Scalar::new(1.0));
        downcast_mut::<Scalar>(boxed.as_mut()).unwrap().value = 5.0;
        assert_eq!(downcast_ref::<Scalar>(boxed.as_ref()).unwrap().value, 5.0);
    }

    #[test]
    fn wrong_downcast_returns_none() {
        let boxed: Box<dyn AppData> = Box::new(Scalar::new(1.0));
        assert!(downcast_ref::<VecF64>(boxed.as_ref()).is_none());
    }

    #[test]
    fn type_label_is_informative() {
        let boxed: Box<dyn AppData> = Box::new(VecF64::zeros(4));
        assert!(boxed.type_label().contains("VecF64"));
        assert!(format!("{boxed:?}").contains("VecF64"));
    }
}
