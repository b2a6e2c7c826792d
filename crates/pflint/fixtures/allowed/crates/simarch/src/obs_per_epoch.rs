// pflint fixture: the same accounting kept out of the per-op body. The
// hot function counts into a field; its per-epoch caller opens the span
// and publishes the count once.
pub struct Stepper {
    hits: u64,
}

impl Stepper {
    // pflint::hot
    pub fn step(&mut self, line: u64) {
        if line % 2 == 0 {
            self.hits += 1;
        }
    }

    /// Cold path: once per epoch.
    pub fn run_epoch(&mut self, lines: &[u64]) {
        let _s = obs::span!("epoch.step");
        for &line in lines {
            self.step(line);
        }
        obs::metrics::counter_add("step.hits", self.hits);
        self.hits = 0;
    }
}
