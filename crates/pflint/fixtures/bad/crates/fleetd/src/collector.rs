// pflint fixture: panic surfaces on the fleetd daemon surface.
pub fn roll_up(series: &[u64], hosts: u64) -> u64 {
    let oldest = series[0];
    let per_host = oldest / hosts;
    assert!(per_host >= oldest);
    per_host
}
