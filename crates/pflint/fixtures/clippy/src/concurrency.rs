//! Threads, locks, atomics, channels and `unsafe` outside a sanctioned
//! item, one banned name per line.

pub fn threads(items: &[u64]) -> u64 {
    let _ = std::thread::spawn(|| {}).join();
    let _ = std::thread::Builder::new().spawn(|| {});
    std::thread::scope(|s| {
        let worker = s.spawn(|| items.iter().sum());
        worker.join().unwrap_or(0)
    })
}

pub struct Shared {
    pub lock: std::sync::Mutex<u64>,
    pub rw: std::sync::RwLock<u64>,
    pub wake: std::sync::Condvar,
    pub hits: std::sync::atomic::AtomicU64,
    pub up: std::sync::atomic::AtomicBool,
    pub tx: std::sync::mpsc::Sender<u8>,
    pub rx: std::sync::mpsc::Receiver<u8>,
    pub bounded: std::sync::mpsc::SyncSender<u8>,
}

pub fn ping() -> Option<u8> {
    let (tx, rx) = std::sync::mpsc::channel();
    let _ = std::sync::mpsc::sync_channel::<u8>(1);
    tx.send(1u8).ok()?;
    rx.recv().ok()
}

pub fn first(bytes: &[u8]) -> u8 {
    if bytes.is_empty() {
        return 0;
    }
    // SAFETY: `bytes` is non-empty, so its pointer is valid for one read.
    unsafe { *bytes.as_ptr() }
}
