// pflint fixture: allocations inside an annotated ingest body, plus
// cold-path formatting outside it.
// pflint::hot
pub fn ingest(ts: u64, out: &mut Vec<String>) {
    out.push(format!("series-{ts}"));
    let tag = ts.to_string();
    out.push(tag);
}

pub fn series_key(ts: u64) -> String {
    format!("key-{ts}")
}
