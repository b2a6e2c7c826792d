//! The pooled-device shape stays clean: the shared-MC state carries an
//! Invariants hook.

impl crate::invariants::Invariants for PooledModule {}
