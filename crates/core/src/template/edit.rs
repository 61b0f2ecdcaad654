//! Template edits: in-place modification of installed worker templates.
//!
//! Edits let a controller make small scheduling changes — migrate one of many
//! partitions, add or drop a task — without re-installing a template
//! (Section 2.3, 4.3). They are attached to an instantiation message and
//! applied by the worker (and mirrored by the controller) before the skeleton
//! is expanded. Edits keep indices stable: removal tombstones an entry,
//! replacement swaps it at the same index, additions append. Which edits a
//! migration needs is decided in one place, the controller's move planner
//! (`nimbus_controller::template_manager`).

use serde::{Deserialize, Serialize};

use crate::template::worker_template::SkeletonEntry;

/// A single edit to an installed worker template.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TemplateEdit {
    /// Tombstone the entry at `index`; it will no longer emit a command.
    RemoveEntry {
        /// Index of the entry to remove.
        index: usize,
    },
    /// Replace the entry at `index` with a new one (used to swap a migrated
    /// task for the data-copy command that takes its slot).
    ReplaceEntry {
        /// Index of the entry to replace.
        index: usize,
        /// The replacement entry.
        entry: SkeletonEntry,
    },
    /// Append a new entry at the end of the template.
    AddEntry {
        /// The entry to append.
        entry: SkeletonEntry,
    },
}

impl TemplateEdit {
    /// Returns a short tag for statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            TemplateEdit::RemoveEntry { .. } => "remove",
            TemplateEdit::ReplaceEntry { .. } => "replace",
            TemplateEdit::AddEntry { .. } => "add",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::worker_template::SkeletonKind;

    #[test]
    fn tags() {
        assert_eq!(TemplateEdit::RemoveEntry { index: 0 }.tag(), "remove");
        assert_eq!(
            TemplateEdit::AddEntry {
                entry: SkeletonEntry::new(SkeletonKind::Nop)
            }
            .tag(),
            "add"
        );
    }
}
