// pflint fixture: a simulator module with a queue-bearing field and no
// conservation-invariant hook.
pub struct BadCore {
    pub served: u64,
    pub port: FifoServer,
}
