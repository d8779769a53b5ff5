//! Structured request logging: one JSON line per request.
//!
//! The hot path must never block on disk, so [`AccessLog`] hands each
//! rendered line to a dedicated writer thread over an unbounded channel
//! and returns immediately; the writer batches lines through a
//! `BufWriter` and flushes when its queue momentarily drains (so tail
//! lines hit disk promptly without an fsync per request). Optional
//! 1-in-N sampling keeps log volume proportional under load.
//!
//! Request IDs are `{nonce}-{seq}`: a per-process startup nonce (so IDs
//! from different server runs never collide in aggregated logs) plus a
//! monotonic counter. One line looks like:
//!
//! ```json
//! {"id":"f3a91c42d7e8-17","route":"slg","dataset":"lesMis","s":2,
//!  "status":200,"bytes_out":48213,"gzip":true,"cache":"miss",
//!  "queue_wait_micros":41,"handle_micros":18322}
//! ```

use crate::json::Json;
use crate::sync::atomic::{AtomicU64, Ordering};
use std::io::{self, BufWriter, Write};
use std::sync::mpsc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Per-process request-ID generator: a startup nonce plus a monotonic
/// sequence number.
#[derive(Debug)]
pub struct RequestIds {
    nonce: u64,
    next: AtomicU64,
}

impl RequestIds {
    /// A generator with a fresh startup nonce (derived from the process
    /// ID and the wall clock — unique enough to tell server runs apart
    /// in aggregated logs, with no RNG dependency).
    pub fn new() -> Self {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = u64::from(std::process::id());
        // SplitMix64 finalizer: spreads pid/time structure over all bits.
        let mut z = nanos ^ (pid << 32) ^ pid;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self {
            nonce: (z ^ (z >> 31)) & 0xffff_ffff_ffff,
            next: AtomicU64::new(0),
        }
    }

    /// The next request ID, e.g. `f3a91c42d7e8-17`.
    pub fn next_id(&self) -> String {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        format!("{:012x}-{seq}", self.nonce)
    }
}

impl Default for RequestIds {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything one access-log line records about a handled request.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Request ID (see [`RequestIds`]).
    pub id: String,
    /// Route wire name ([`crate::metrics::Route::name`]).
    pub route: &'static str,
    /// Dataset the request addressed, when the route has one.
    pub dataset: Option<String>,
    /// The `s` parameter, when the route has one.
    pub s: Option<u32>,
    /// Response status code.
    pub status: u16,
    /// Response bytes written to the socket — status line, headers and
    /// body, post-gzip, chunk framing included (headers only for HEAD).
    pub bytes_out: u64,
    /// Whether the body was gzip-compressed.
    pub gzip: bool,
    /// Cache outcome (`hit` / `miss` / `coalesced`) when the route
    /// consulted a cache tier.
    pub cache: Option<&'static str>,
    /// Time the request waited in the worker queue before a worker
    /// picked it up, microseconds.
    pub queue_wait_micros: u64,
    /// Time spent handling the request (parse to response), microseconds.
    pub handle_micros: u64,
}

impl AccessRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = Json::obj()
            .set("id", self.id.as_str())
            .set("route", self.route);
        if let Some(dataset) = &self.dataset {
            obj = obj.set("dataset", dataset.as_str());
        }
        if let Some(s) = self.s {
            obj = obj.set("s", s);
        }
        obj = obj
            .set("status", self.status)
            .set("bytes_out", self.bytes_out)
            .set("gzip", self.gzip);
        if let Some(cache) = self.cache {
            obj = obj.set("cache", cache);
        }
        obj.set("queue_wait_micros", self.queue_wait_micros)
            .set("handle_micros", self.handle_micros)
            .render()
    }
}

enum Message {
    Line(String),
    /// Drain + flush, then ack — lets tests (and shutdown) wait for
    /// everything recorded so far to reach the sink.
    Flush(mpsc::SyncSender<()>),
}

/// The non-blocking JSONL sink: requests enqueue rendered lines; a
/// dedicated thread owns the file handle.
pub struct AccessLog {
    tx: mpsc::Sender<Message>,
    /// Keep 1 in `sample` records (1 = keep all).
    sample: u64,
    seen: AtomicU64,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl AccessLog {
    /// Opens (appends to) `path` and starts the writer thread. `sample`
    /// keeps one record in that many (0 and 1 both mean "every record").
    pub fn to_file(path: &std::path::Path, sample: u64) -> io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::to_writer(Box::new(file), sample))
    }

    /// Starts a log draining into an arbitrary sink (tests).
    pub fn to_writer(sink: Box<dyn Write + Send>, sample: u64) -> AccessLog {
        let (tx, rx) = mpsc::channel::<Message>();
        let writer = std::thread::Builder::new()
            .name("hyperline-access-log".into())
            .spawn(move || {
                let mut out = BufWriter::new(sink);
                while let Ok(mut message) = rx.recv() {
                    // Drain greedily, then flush once when the queue
                    // momentarily empties: batched under load, prompt
                    // on the tail.
                    loop {
                        match message {
                            Message::Line(line) => {
                                let _ = out.write_all(line.as_bytes());
                                let _ = out.write_all(b"\n");
                            }
                            Message::Flush(ack) => {
                                let _ = out.flush();
                                let _ = ack.send(());
                            }
                        }
                        match rx.try_recv() {
                            Ok(next) => message = next,
                            Err(_) => break,
                        }
                    }
                    let _ = out.flush();
                }
                let _ = out.flush();
            })
            .expect("failed to spawn access-log writer");
        AccessLog {
            tx,
            sample: sample.max(1),
            seen: AtomicU64::new(0),
            writer: Some(writer),
        }
    }

    /// Records one request (non-blocking). With sampling, only every
    /// `sample`-th record is written.
    pub fn record(&self, record: &AccessRecord) {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample) {
            return;
        }
        let _ = self.tx.send(Message::Line(record.to_json_line()));
    }

    /// Blocks until everything recorded so far is flushed to the sink.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if self.tx.send(Message::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        // Closing the channel ends the writer loop; join so buffered
        // lines reach the sink before the process moves on.
        let (tx, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` handing bytes to a shared buffer.
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record(id: &str) -> AccessRecord {
        AccessRecord {
            id: id.to_string(),
            route: "slg",
            dataset: Some("lesMis".into()),
            s: Some(2),
            status: 200,
            bytes_out: 123,
            gzip: false,
            cache: Some("miss"),
            queue_wait_micros: 7,
            handle_micros: 1500,
        }
    }

    #[test]
    fn lines_are_valid_json_with_expected_fields() {
        let line = record("abc-0").to_json_line();
        let parsed = Json::parse(&line).expect("line must parse");
        assert_eq!(parsed.get("id").unwrap().as_str(), Some("abc-0"));
        assert_eq!(parsed.get("route").unwrap().as_str(), Some("slg"));
        assert_eq!(parsed.get("dataset").unwrap().as_str(), Some("lesMis"));
        assert_eq!(parsed.get("s").unwrap().as_int(), Some(2));
        assert_eq!(parsed.get("status").unwrap().as_int(), Some(200));
        assert_eq!(parsed.get("bytes_out").unwrap().as_int(), Some(123));
        assert_eq!(parsed.get("gzip").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(parsed.get("queue_wait_micros").unwrap().as_int(), Some(7));
        assert_eq!(parsed.get("handle_micros").unwrap().as_int(), Some(1500));
    }

    #[test]
    fn optional_fields_are_omitted() {
        let mut r = record("x-1");
        r.dataset = None;
        r.s = None;
        r.cache = None;
        let parsed = Json::parse(&r.to_json_line()).unwrap();
        assert!(parsed.get("dataset").is_none());
        assert!(parsed.get("s").is_none());
        assert!(parsed.get("cache").is_none());
    }

    #[test]
    fn writer_thread_persists_all_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = AccessLog::to_writer(Box::new(SharedSink(Arc::clone(&buf))), 1);
        for i in 0..100 {
            log.record(&record(&format!("id-{i}")));
        }
        log.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).expect("every line parses");
            assert_eq!(
                parsed.get("id").unwrap().as_str(),
                Some(format!("id-{i}").as_str()),
                "lines stay in order"
            );
        }
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = AccessLog::to_writer(Box::new(SharedSink(Arc::clone(&buf))), 10);
        for i in 0..100 {
            log.record(&record(&format!("id-{i}")));
        }
        log.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn drop_flushes_pending_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = AccessLog::to_writer(Box::new(SharedSink(Arc::clone(&buf))), 1);
        log.record(&record("tail-0"));
        drop(log);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn request_ids_are_unique_and_share_the_nonce() {
        let ids = RequestIds::new();
        let a = ids.next_id();
        let b = ids.next_id();
        assert_ne!(a, b);
        let nonce = |s: &str| s.split('-').next().unwrap().to_string();
        assert_eq!(nonce(&a), nonce(&b));
        assert!(a.ends_with("-0") && b.ends_with("-1"));
    }
}
