//! Per-connection read/write buffers for nonblocking sockets.
//!
//! [`ReadBuf`] accumulates inbound bytes until the connection's codec can
//! carve a complete frame; [`WriteBuf`] queues outbound frames and flushes
//! as far as the socket allows. Both expose their occupancy so the
//! connection state machine can apply backpressure: stop reading when too
//! many frames are in flight, evict the peer when the write buffer
//! exceeds its hard cap (a slow reader).

use std::io::{self, Read, Write};

/// How much a single `fill` call may pull off one socket before yielding
/// back to the event loop, so one firehose connection cannot starve the
/// rest of the reactor.
const MAX_FILL_PER_CALL: usize = 256 * 1024;

/// Outcome of draining readable bytes from a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` new bytes were appended (the socket may have more pending).
    Read(usize),
    /// The socket had no bytes ready.
    WouldBlock,
    /// The peer closed its write half (EOF).
    Closed,
}

/// An append-only inbound buffer with O(1) amortized front consumption.
#[derive(Debug, Default)]
pub struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
}

impl ReadBuf {
    /// Creates an empty buffer.
    pub fn new() -> ReadBuf {
        ReadBuf::default()
    }

    /// The unconsumed bytes.
    pub fn data(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or_default()
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops `n` bytes from the front (clamped to the available length),
    /// compacting the backing storage once the consumed prefix dominates.
    pub fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.buf.len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Reads from `src` until it would block, hits EOF, or the per-call
    /// budget is spent. Retries `EINTR` internally.
    ///
    /// # Errors
    ///
    /// Propagates genuine socket errors (connection reset, etc.).
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<ReadOutcome> {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match src.read(&mut chunk) {
                Ok(0) => {
                    return Ok(if total > 0 { ReadOutcome::Read(total) } else { ReadOutcome::Closed })
                }
                Ok(n) => {
                    let Some(got) = chunk.get(..n) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "read reported more than the buffer holds",
                        ));
                    };
                    self.buf.extend_from_slice(got);
                    total += n;
                    if total >= MAX_FILL_PER_CALL {
                        return Ok(ReadOutcome::Read(total));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if total > 0 {
                        ReadOutcome::Read(total)
                    } else {
                        ReadOutcome::WouldBlock
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Outcome of flushing queued bytes to a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Everything queued has been written.
    Flushed,
    /// The socket filled up; bytes remain queued and write interest
    /// should stay armed.
    Partial,
}

/// An outbound byte queue with a write cursor.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
}

impl WriteBuf {
    /// Creates an empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queues `bytes` for transmission.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Queues whatever `write` appends to the buffer's backing storage, so
    /// a frame is serialized in place instead of built and then copied.
    /// `write` must only append: the queued bytes ahead of it are not its
    /// to change.
    pub fn append<R>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let r = write(&mut self.buf);
        // A `write` that truncated leaves the cursor inside the buffer.
        self.start = self.start.min(self.buf.len());
        r
    }

    /// Number of queued, unwritten bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes as much as the socket accepts. Retries `EINTR` internally.
    ///
    /// # Errors
    ///
    /// Propagates genuine socket errors (broken pipe, reset, etc.).
    pub fn flush_to(&mut self, dst: &mut impl Write) -> io::Result<WriteOutcome> {
        while let Some(pending) = self.buf.get(self.start..).filter(|p| !p.is_empty()) {
            match dst.write(pending) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"))
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(WriteOutcome::Partial),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(WriteOutcome::Flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_buf_consume_and_compact() {
        let mut rb = ReadBuf::new();
        let mut src: &[u8] = b"hello world";
        assert_eq!(rb.fill(&mut src).expect("fill"), ReadOutcome::Read(11));
        assert_eq!(rb.data(), b"hello world");
        rb.consume(6);
        assert_eq!(rb.data(), b"world");
        rb.consume(5);
        assert!(rb.is_empty());
        // EOF on an empty read reports Closed.
        let mut eof: &[u8] = b"";
        assert_eq!(rb.fill(&mut eof).expect("fill"), ReadOutcome::Closed);
    }

    #[test]
    fn over_consume_is_clamped() {
        let mut rb = ReadBuf::new();
        let mut src: &[u8] = b"abc";
        rb.fill(&mut src).expect("fill");
        rb.consume(100);
        assert!(rb.is_empty());
    }

    struct Trickle {
        accepted: Vec<u8>,
        budget: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.budget);
            self.accepted.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_flushes_across_partial_writes() {
        let mut wb = WriteBuf::new();
        wb.push(b"0123456789");
        let mut sink = Trickle { accepted: Vec::new(), budget: 4 };
        assert_eq!(wb.flush_to(&mut sink).expect("flush"), WriteOutcome::Partial);
        assert_eq!(wb.len(), 6);

        sink.budget = 100;
        assert_eq!(wb.flush_to(&mut sink).expect("flush"), WriteOutcome::Flushed);
        assert!(wb.is_empty());
        assert_eq!(sink.accepted, b"0123456789");

        // More pushes after a full flush start clean.
        wb.push(b"ab");
        assert_eq!(wb.len(), 2);
    }

    #[test]
    fn append_queues_what_it_writes_behind_the_pending_bytes() {
        let mut wb = WriteBuf::new();
        wb.push(b"0123");
        let mut sink = Trickle { accepted: Vec::new(), budget: 2 };
        assert_eq!(wb.flush_to(&mut sink).expect("flush"), WriteOutcome::Partial);
        wb.append(|out| out.extend_from_slice(b"ab"));
        assert_eq!(wb.len(), 4);
        sink.budget = 100;
        assert_eq!(wb.flush_to(&mut sink).expect("flush"), WriteOutcome::Flushed);
        assert_eq!(sink.accepted, b"0123ab");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn buffers_round_trip_over_a_nonblocking_socket() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut rb = ReadBuf::new();
        assert_eq!(rb.fill(&mut server).expect("fill"), ReadOutcome::WouldBlock);

        client.write_all(b"frame-1\nframe-2\n").expect("write");
        // Give the loopback a moment to deliver.
        std::thread::sleep(std::time::Duration::from_millis(20));
        match rb.fill(&mut server).expect("fill") {
            ReadOutcome::Read(n) => assert_eq!(n, 16),
            other => unreachable!("expected bytes, got {other:?}"),
        }
        assert_eq!(rb.data(), b"frame-1\nframe-2\n");
    }
}
