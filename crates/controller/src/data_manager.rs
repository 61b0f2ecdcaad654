//! The controller's view of cluster data: datasets, physical instances,
//! versions, and partition homes.
//!
//! The data manager answers the control plane's recurring questions — where
//! does a partition live, which instance holds its latest version, does a
//! worker already have a (possibly stale) copy — and allocates physical
//! object identifiers when new instances are needed.

use std::collections::HashMap;

use nimbus_core::data::{DatasetDef, DatasetRegistry, PhysicalInstance};
use nimbus_core::ids::{
    IdGenerator, LogicalObjectId, LogicalPartition, PhysicalObjectId, Version, WorkerId,
};
use nimbus_core::versioning::{InstanceMap, VersionMap};

use crate::assignment::AssignmentPolicy;
use crate::error::{ControllerError, ControllerResult};

/// The controller's data-state bookkeeping.
pub struct DataManager {
    /// Registered datasets.
    pub datasets: DatasetRegistry,
    /// Every physical instance in the cluster.
    pub instances: InstanceMap,
    /// Latest version of every partition in program order.
    pub versions: VersionMap,
    physical_ids: IdGenerator,
    partition_home: HashMap<LogicalPartition, WorkerId>,
    policy: AssignmentPolicy,
}

impl DataManager {
    /// Creates an empty data manager with the given assignment policy.
    pub fn new(policy: AssignmentPolicy) -> Self {
        Self {
            datasets: DatasetRegistry::new(),
            instances: InstanceMap::new(),
            versions: VersionMap::new(),
            physical_ids: IdGenerator::new(),
            partition_home: HashMap::new(),
            policy,
        }
    }

    /// Registers a dataset definition.
    pub fn define_dataset(&mut self, def: DatasetDef) {
        self.datasets.register(def);
    }

    /// Looks up a dataset by id.
    pub fn dataset(&self, id: LogicalObjectId) -> Option<&DatasetDef> {
        self.datasets.get(id)
    }

    /// Returns (assigning on first touch) the home worker of a partition.
    pub fn home_of(
        &mut self,
        lp: LogicalPartition,
        workers: &[WorkerId],
    ) -> ControllerResult<WorkerId> {
        if workers.is_empty() {
            return Err(ControllerError::NoWorkers);
        }
        if let Some(w) = self.partition_home.get(&lp) {
            if workers.contains(w) {
                return Ok(*w);
            }
        }
        let w = self.policy.assign(lp, workers);
        self.partition_home.insert(lp, w);
        Ok(w)
    }

    /// Overrides the home worker of a partition (used by migrations and by
    /// allocation changes).
    pub fn set_home(&mut self, lp: LogicalPartition, worker: WorkerId) {
        self.partition_home.insert(lp, worker);
    }

    /// Returns the instance of `lp` on `worker`, if one exists.
    pub fn instance_on(&self, lp: LogicalPartition, worker: WorkerId) -> Option<PhysicalInstance> {
        self.instances.instance_on_worker(lp, worker).copied()
    }

    /// Returns an existing instance of `lp` on `worker` or registers a new
    /// one (at version zero). The boolean is true if the instance was newly
    /// created and therefore needs a `CreateData` command.
    pub fn ensure_instance(
        &mut self,
        lp: LogicalPartition,
        worker: WorkerId,
    ) -> (PhysicalInstance, bool) {
        if let Some(existing) = self.instances.instance_on_worker(lp, worker) {
            return (*existing, false);
        }
        let id = PhysicalObjectId(self.physical_ids.next_raw());
        let instance = PhysicalInstance::new(id, lp, worker);
        self.instances.insert(instance);
        (instance, true)
    }

    /// Registers a brand-new instance of `lp` on `worker` even if one already
    /// exists there. Used by migration edits when the destination has no
    /// unused instance of the partition to take over: the ones it has belong
    /// to resident template entries, whose ordering a moved task must not
    /// join.
    pub fn create_dedicated_instance(
        &mut self,
        lp: LogicalPartition,
        worker: WorkerId,
    ) -> PhysicalInstance {
        let id = PhysicalObjectId(self.physical_ids.next_raw());
        let instance = PhysicalInstance::new(id, lp, worker);
        self.instances.insert(instance);
        instance
    }

    /// Returns an instance holding the latest version of `lp`, preferring one
    /// on `prefer` if given.
    pub fn latest_holder(
        &self,
        lp: LogicalPartition,
        prefer: Option<WorkerId>,
    ) -> Option<PhysicalInstance> {
        let holders = self.instances.latest_holders(lp, &self.versions);
        if let Some(w) = prefer {
            if let Some(h) = holders.iter().find(|h| h.worker == w) {
                return Some(**h);
            }
        }
        holders.first().map(|h| **h)
    }

    /// Returns true if the instance holds the latest version of its partition.
    pub fn is_up_to_date(&self, id: PhysicalObjectId) -> bool {
        self.instances.is_up_to_date(id, &self.versions)
    }

    /// Records that a task wrote `lp` through instance `id`: advances the
    /// partition version and marks the instance as holding it.
    pub fn record_write(&mut self, lp: LogicalPartition, id: PhysicalObjectId) -> Version {
        let v = self.versions.bump(lp);
        // The instance is registered by ensure_instance before any write.
        let _ = self.instances.set_version(id, v);
        v
    }

    /// Records that instance `id` was refreshed to the latest version of `lp`
    /// by a copy.
    pub fn record_refresh(&mut self, lp: LogicalPartition, id: PhysicalObjectId) {
        let latest = self.versions.current(lp);
        let _ = self.instances.set_version(id, latest);
    }

    /// Removes every instance hosted by `worker` (eviction or failure) and
    /// returns the partitions that lost their only up-to-date copy.
    pub fn drop_worker(&mut self, worker: WorkerId) -> Vec<LogicalPartition> {
        let removed = self.instances.remove_worker(worker);
        let mut lost = Vec::new();
        for inst in removed {
            let still_have_latest = !self
                .instances
                .latest_holders(inst.logical, &self.versions)
                .is_empty();
            if !still_have_latest && !lost.contains(&inst.logical) {
                lost.push(inst.logical);
            }
        }
        // Re-home partitions that pointed at the dropped worker; they will be
        // reassigned on next touch.
        self.partition_home.retain(|_, w| *w != worker);
        lost
    }

    /// Every partition that has been assigned a home so far.
    pub fn known_partitions(&self) -> Vec<LogicalPartition> {
        self.partition_home.keys().copied().collect()
    }

    /// Number of physical instances tracked.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::ids::PartitionIndex;

    fn lp(o: u64, p: u32) -> LogicalPartition {
        LogicalPartition::new(LogicalObjectId(o), PartitionIndex(p))
    }

    fn dm() -> DataManager {
        let mut dm = DataManager::new(AssignmentPolicy::hash());
        dm.define_dataset(DatasetDef::new(LogicalObjectId(1), "tdata", 4));
        dm.define_dataset(DatasetDef::new(LogicalObjectId(2), "coeff", 1));
        dm
    }

    #[test]
    fn dataset_lookup() {
        let dm = dm();
        assert_eq!(dm.dataset(LogicalObjectId(1)).unwrap().partitions, 4);
        assert!(dm.dataset(LogicalObjectId(2)).is_some());
        assert!(dm.dataset(LogicalObjectId(9)).is_none());
    }

    #[test]
    fn home_is_sticky_until_worker_leaves() {
        let mut dm = dm();
        let ws = vec![WorkerId(0), WorkerId(1)];
        let h = dm.home_of(lp(1, 1), &ws).unwrap();
        assert_eq!(h, WorkerId(1));
        assert_eq!(dm.home_of(lp(1, 1), &ws).unwrap(), h);
        // Worker 1 leaves: reassigned among remaining.
        let h2 = dm.home_of(lp(1, 1), &[WorkerId(0)]).unwrap();
        assert_eq!(h2, WorkerId(0));
        assert!(dm.home_of(lp(1, 1), &[]).is_err());
    }

    #[test]
    fn ensure_instance_creates_once() {
        let mut dm = dm();
        let (a, created_a) = dm.ensure_instance(lp(1, 0), WorkerId(0));
        assert!(created_a);
        let (b, created_b) = dm.ensure_instance(lp(1, 0), WorkerId(0));
        assert!(!created_b);
        assert_eq!(a.id, b.id);
        let (c, created_c) = dm.ensure_instance(lp(1, 0), WorkerId(1));
        assert!(created_c);
        assert_ne!(a.id, c.id);
        assert_eq!(dm.instance_count(), 2);
    }

    #[test]
    fn writes_and_refreshes_track_latest_holder() {
        let mut dm = dm();
        let (a, _) = dm.ensure_instance(lp(2, 0), WorkerId(0));
        let (b, _) = dm.ensure_instance(lp(2, 0), WorkerId(1));
        let v = dm.record_write(lp(2, 0), a.id);
        assert_eq!(v, Version(1));
        assert!(dm.is_up_to_date(a.id));
        assert!(!dm.is_up_to_date(b.id));
        assert_eq!(dm.latest_holder(lp(2, 0), None).unwrap().id, a.id);
        assert_eq!(
            dm.latest_holder(lp(2, 0), Some(WorkerId(1))).unwrap().id,
            a.id,
            "preference only applies among latest holders"
        );
        dm.record_refresh(lp(2, 0), b.id);
        assert!(dm.is_up_to_date(b.id));
        assert_eq!(
            dm.latest_holder(lp(2, 0), Some(WorkerId(1))).unwrap().id,
            b.id
        );
    }

    #[test]
    fn drop_worker_reports_lost_partitions() {
        let mut dm = dm();
        let ws = vec![WorkerId(0), WorkerId(1)];
        let (a, _) = dm.ensure_instance(lp(1, 0), WorkerId(0));
        dm.home_of(lp(1, 0), &ws).unwrap();
        dm.record_write(lp(1, 0), a.id);
        // Partition 1 has a second, up-to-date copy elsewhere.
        let (b, _) = dm.ensure_instance(lp(1, 1), WorkerId(0));
        dm.record_write(lp(1, 1), b.id);
        let (c, _) = dm.ensure_instance(lp(1, 1), WorkerId(1));
        dm.record_refresh(lp(1, 1), c.id);

        let lost = dm.drop_worker(WorkerId(0));
        assert_eq!(lost, vec![lp(1, 0)]);
        assert!(!dm.known_partitions().contains(&lp(1, 0)));
        assert_eq!(dm.instance_count(), 1);
    }

    #[test]
    fn known_partitions_lists_assignments() {
        let mut dm = dm();
        let ws = vec![WorkerId(0), WorkerId(1)];
        for p in 0..4 {
            dm.home_of(lp(1, p), &ws).unwrap();
        }
        assert_eq!(dm.known_partitions().len(), 4);
    }
}
