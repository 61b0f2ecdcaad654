//! Template registries and the patch cache.
//!
//! The controller keeps every installed controller template (indexed by name
//! and id) and every worker-template group (indexed by id and by the
//! controller template + worker-set it was generated for). Workers keep their
//! own much smaller cache of installed [`WorkerTemplate`]s. A shared
//! [`PatchCache`] wraps the patch lookup table from Section 4.2.

use std::collections::HashMap;

use crate::error::{CoreError, CoreResult};
use crate::ids::{TemplateId, WorkerId};
use crate::template::controller_template::ControllerTemplate;
use crate::template::patch::{Patch, PatchCacheInner, PatchKey};
use crate::template::worker_template::{WorkerTemplate, WorkerTemplateGroup};

/// Controller-side registry of installed templates.
#[derive(Clone, Debug, Default)]
pub struct TemplateRegistry {
    controller_templates: HashMap<TemplateId, ControllerTemplate>,
    by_name: HashMap<String, TemplateId>,
    groups: HashMap<TemplateId, WorkerTemplateGroup>,
    /// Groups generated for a given controller template, most recent last.
    groups_by_controller: HashMap<TemplateId, Vec<TemplateId>>,
}

impl TemplateRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a controller template, indexing it by name.
    pub fn install_controller_template(&mut self, template: ControllerTemplate) {
        self.by_name.insert(template.name.clone(), template.id);
        self.controller_templates.insert(template.id, template);
    }

    /// Looks up a controller template by id.
    pub fn controller_template(&self, id: TemplateId) -> CoreResult<&ControllerTemplate> {
        self.controller_templates
            .get(&id)
            .ok_or(CoreError::UnknownTemplate(id))
    }

    /// Looks up a controller template by basic-block name.
    pub fn controller_template_by_name(&self, name: &str) -> Option<&ControllerTemplate> {
        self.by_name
            .get(name)
            .and_then(|id| self.controller_templates.get(id))
    }

    /// Returns true if a controller template with this name is installed.
    pub fn has_block(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Installs a worker-template group.
    pub fn install_group(&mut self, group: WorkerTemplateGroup) {
        self.groups_by_controller
            .entry(group.controller_template)
            .or_default()
            .push(group.id);
        self.groups.insert(group.id, group);
    }

    /// Looks up a worker-template group by id.
    pub fn group(&self, id: TemplateId) -> CoreResult<&WorkerTemplateGroup> {
        self.groups.get(&id).ok_or(CoreError::UnknownTemplate(id))
    }

    /// Mutable lookup of a worker-template group by id.
    pub fn group_mut(&mut self, id: TemplateId) -> CoreResult<&mut WorkerTemplateGroup> {
        self.groups
            .get_mut(&id)
            .ok_or(CoreError::UnknownTemplate(id))
    }

    /// Returns the most recently installed group for a controller template
    /// whose worker set is covered by the given allocation, if any. This is
    /// how the controller re-uses old worker templates when a revoked
    /// allocation is restored (Figure 9, iteration 30): a group built for a
    /// subset of the allocation is still executable; a group that references
    /// evicted workers is not.
    pub fn find_group_for_workers(
        &self,
        controller_template: TemplateId,
        workers: &[WorkerId],
    ) -> Option<&WorkerTemplateGroup> {
        let mut sorted: Vec<WorkerId> = workers.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.find_group_for_sorted_workers(controller_template, &sorted)
    }

    /// [`TemplateRegistry::find_group_for_workers`] for a caller that
    /// already holds the allocation sorted and deduplicated (the controller
    /// caches one). This is the steady-state instantiation path, so the
    /// lookup allocates nothing: membership is checked against the groups'
    /// key sets directly instead of materializing worker lists.
    pub fn find_group_for_sorted_workers(
        &self,
        controller_template: TemplateId,
        sorted: &[WorkerId],
    ) -> Option<&WorkerTemplateGroup> {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let candidates = self.groups_by_controller.get(&controller_template)?;
        // Prefer an exact match (most recent first), then any group whose
        // workers are all still allocated.
        candidates
            .iter()
            .rev()
            .filter_map(|id| self.groups.get(id))
            .find(|g| {
                g.per_worker.len() == sorted.len()
                    && sorted.iter().all(|w| g.per_worker.contains_key(w))
            })
            .or_else(|| {
                candidates
                    .iter()
                    .rev()
                    .filter_map(|id| self.groups.get(id))
                    .find(|g| g.per_worker.keys().all(|w| sorted.binary_search(w).is_ok()))
            })
    }

    /// Ids of every installed worker-template group, sorted for determinism.
    pub fn group_ids(&self) -> Vec<TemplateId> {
        let mut ids: Vec<TemplateId> = self.groups.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Removes every group that has a per-worker template for `worker`,
    /// returning how many were retired. Used when a worker rejoins after a
    /// permanent eviction: groups referencing its previous incarnation point
    /// at physical instances that died with it and can never validate again.
    pub fn remove_groups_with_worker(&mut self, worker: WorkerId) -> usize {
        let doomed: Vec<TemplateId> = self
            .groups
            .values()
            .filter(|g| g.per_worker.contains_key(&worker))
            .map(|g| g.id)
            .collect();
        for id in &doomed {
            if let Some(group) = self.groups.remove(id) {
                if let Some(ids) = self
                    .groups_by_controller
                    .get_mut(&group.controller_template)
                {
                    ids.retain(|x| x != id);
                }
            }
        }
        doomed.len()
    }

    /// Number of installed controller templates.
    pub fn controller_template_count(&self) -> usize {
        self.controller_templates.len()
    }

    /// Number of installed worker-template groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Worker-side cache of installed worker templates.
#[derive(Clone, Debug, Default)]
pub struct WorkerTemplateCache {
    templates: HashMap<TemplateId, WorkerTemplate>,
}

impl WorkerTemplateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a worker template.
    pub fn install(&mut self, template: WorkerTemplate) {
        self.templates.insert(template.id, template);
    }

    /// Looks up an installed template.
    pub fn get(&self, id: TemplateId) -> CoreResult<&WorkerTemplate> {
        self.templates
            .get(&id)
            .ok_or(CoreError::UnknownTemplate(id))
    }

    /// Mutable lookup (needed to apply edits).
    pub fn get_mut(&mut self, id: TemplateId) -> CoreResult<&mut WorkerTemplate> {
        self.templates
            .get_mut(&id)
            .ok_or(CoreError::UnknownTemplate(id))
    }

    /// Removes a template from the cache.
    pub fn remove(&mut self, id: TemplateId) -> Option<WorkerTemplate> {
        self.templates.remove(&id)
    }

    /// Number of cached templates. Workers cache multiple templates so the
    /// controller can switch between schedules by invoking different ones.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Returns true if no templates are installed.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// Thin wrapper over the patch lookup table with hit/miss accounting.
#[derive(Clone, Debug, Default)]
pub struct PatchCache {
    inner: PatchCacheInner,
}

impl PatchCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached patch for `(previous, target)`.
    pub fn lookup(&mut self, previous: Option<TemplateId>, target: TemplateId) -> Option<Patch> {
        self.inner.lookup(PatchKey { previous, target })
    }

    /// Stores a patch for `(previous, target)`.
    pub fn store(&mut self, previous: Option<TemplateId>, target: TemplateId, patch: Patch) {
        self.inner.store(PatchKey { previous, target }, patch);
    }

    /// Invalidates every patch targeting a template.
    pub fn invalidate_target(&mut self, target: TemplateId) {
        self.inner.invalidate_target(target);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    /// Number of cached patches.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns true if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FunctionId, StageId};
    use crate::params::TaskParams;
    use crate::template::controller_template::ControllerTaskEntry;

    fn controller_template(id: u64, name: &str, worker: u32) -> ControllerTemplate {
        ControllerTemplate::new(
            TemplateId(id),
            name,
            vec![ControllerTaskEntry {
                index: 0,
                stage: StageId(1),
                function: FunctionId(1),
                reads: vec![],
                writes: vec![],
                before: vec![],
                assigned_worker: WorkerId(worker),
                default_params: TaskParams::empty(),
            }],
        )
        .unwrap()
    }

    fn group(id: u64, controller: u64, workers: &[u32]) -> WorkerTemplateGroup {
        let per_worker = workers
            .iter()
            .map(|w| {
                let template = WorkerTemplate::new(
                    TemplateId(id),
                    TemplateId(controller),
                    WorkerId(*w),
                    vec![],
                );
                (WorkerId(*w), template.unwrap())
            })
            .collect();
        WorkerTemplateGroup::new(TemplateId(id), TemplateId(controller), per_worker)
    }

    #[test]
    fn registry_name_and_id_lookup() {
        let mut reg = TemplateRegistry::new();
        reg.install_controller_template(controller_template(1, "inner", 0));
        assert!(reg.has_block("inner"));
        assert!(!reg.has_block("outer"));
        assert_eq!(
            reg.controller_template(TemplateId(1)).unwrap().name,
            "inner"
        );
        assert!(reg.controller_template(TemplateId(2)).is_err());
        assert_eq!(
            reg.controller_template_by_name("inner").unwrap().id,
            TemplateId(1)
        );
        assert_eq!(reg.controller_template_count(), 1);
    }

    #[test]
    fn group_lookup_by_worker_set() {
        let mut reg = TemplateRegistry::new();
        reg.install_controller_template(controller_template(1, "inner", 0));
        reg.install_group(group(10, 1, &[0, 1]));
        reg.install_group(group(11, 1, &[0]));
        assert_eq!(reg.group_count(), 2);
        let found = reg
            .find_group_for_workers(TemplateId(1), &[WorkerId(1), WorkerId(0)])
            .unwrap();
        assert_eq!(found.id, TemplateId(10));
        let found = reg
            .find_group_for_workers(TemplateId(1), &[WorkerId(0)])
            .unwrap();
        assert_eq!(found.id, TemplateId(11));
        assert!(reg
            .find_group_for_workers(TemplateId(1), &[WorkerId(2)])
            .is_none());
    }

    #[test]
    fn most_recent_matching_group_wins() {
        let mut reg = TemplateRegistry::new();
        reg.install_group(group(10, 1, &[0, 1]));
        reg.install_group(group(12, 1, &[0, 1]));
        let found = reg
            .find_group_for_workers(TemplateId(1), &[WorkerId(0), WorkerId(1)])
            .unwrap();
        assert_eq!(found.id, TemplateId(12));
    }

    #[test]
    fn worker_cache_install_and_edit_access() {
        let mut cache = WorkerTemplateCache::new();
        assert!(cache.is_empty());
        cache.install(
            WorkerTemplate::new(TemplateId(1), TemplateId(1), WorkerId(0), vec![]).unwrap(),
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.get(TemplateId(1)).is_ok());
        assert!(cache.get_mut(TemplateId(1)).is_ok());
        assert!(cache.get(TemplateId(2)).is_err());
        assert!(cache.remove(TemplateId(1)).is_some());
        assert!(cache.is_empty());
    }

    #[test]
    fn patch_cache_wrapper() {
        let mut cache = PatchCache::new();
        assert!(cache.lookup(None, TemplateId(1)).is_none());
        cache.store(
            None,
            TemplateId(1),
            Patch {
                target: TemplateId(1),
                directives: vec![],
            },
        );
        assert!(cache.lookup(None, TemplateId(1)).is_some());
        assert_eq!(cache.stats(), (1, 1));
        cache.invalidate_target(TemplateId(1));
        assert!(cache.is_empty());
    }
}
