// pflint fixture: obs calls inside a per-op body. Each span reads the
// clock twice and takes the recorder lock, once per simulated access.
// pflint::hot
pub fn step(line: u64, hits: &mut u64) {
    let _s = obs::span!("step.probe");
    if line % 2 == 0 {
        *hits += 1;
        obs::metrics::counter_add("step.hits", 1);
    }
}
