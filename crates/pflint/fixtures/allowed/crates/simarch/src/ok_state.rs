// pflint fixture: a queue-bearing module that registers its
// conservation-invariant hook.
pub struct OkCore {
    pub served: u64,
    pub port: FifoServer,
}

impl Invariants for OkCore {}
