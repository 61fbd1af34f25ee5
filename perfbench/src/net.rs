//! The load generator's socket layer: one thread drives every
//! connection, waiting on them with `ppoll(2)` so open-loop sends leave
//! on time (a socket read timeout would round waits up to a scheduler
//! tick) and no thread is spent per connection.
//!
//! Replies are read raw and only their heads are scanned
//! ([`crate::scan`]); the full bytes of a seeded sample are kept for
//! verification after the timed window.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::scan::{scan_reply, ReplyHead};
use crate::schedule::Slot;

/// How long a phase may wait for any reply before it gives up.
const STALL: Duration = Duration::from_secs(30);
/// Bytes requested per `read` call.
const READ_CHUNK: usize = 256 * 1024;

// `struct pollfd` and `struct timespec` as 64-bit Linux lays them out
// (the benchmark reads `/proc` too, so it is Linux-only anyway).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x001;

/// Waits until at least one of `conns` is readable or `timeout`
/// passes; returns which are readable (error and hang-up states count
/// as readable so the following `read` reports them).
fn wait_readable(conns: &[Conn], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, correctly laid out `struct pollfd`
    // array of the length passed; `ts` outlives the call; a null
    // sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; conns.len()]);
        }
        return Err(err);
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// A request that has been sent and awaits its reply.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: usize,
    id: u64,
    due_ns: u64,
    sent_ns: u64,
}

/// One client connection with its receive buffer and in-flight queue
/// (the server answers each connection in request order).
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    outstanding: VecDeque<Pending>,
}

impl Conn {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(STALL))?;
        stream.set_read_timeout(Some(STALL))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(READ_CHUNK),
            scanned: 0,
            outstanding: VecDeque::new(),
        })
    }

    /// Reads whatever is available (blocking until something is).
    fn fill(&mut self) -> io::Result<()> {
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        let n = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            _ => Ok(()),
        }
    }

    /// Takes the next complete line out of the buffer, if one is there.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let pos = self.buf[self.scanned..].iter().position(|&b| b == b'\n')? + self.scanned;
        let rest = self.buf.split_off(pos + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.truncate(pos);
        self.scanned = 0;
        Some(line)
    }

    fn mark_scanned(&mut self) {
        self.scanned = self.buf.len();
    }

    /// Sends one line and blocks for its reply. Only for control
    /// verbs and set-up requests, never inside a timed phase's loop.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<Vec<u8>> {
        assert!(
            self.outstanding.is_empty(),
            "roundtrip on a busy connection"
        );
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        loop {
            if let Some(reply) = self.take_line() {
                return Ok(reply);
            }
            self.mark_scanned();
            self.fill()?;
        }
    }
}

/// The request lines of a phase: `{"id":<id>,` + a pre-generated body
/// (the rest of the request object), cycling through the bodies.
#[derive(Debug)]
pub struct Requests<'a> {
    /// Request bodies, generated before timing starts.
    pub bodies: &'a [String],
    /// Id of the phase's first request; request `seq` carries
    /// `first_id + seq`.
    pub first_id: u64,
}

impl Requests<'_> {
    fn write(&self, seq: usize, out: &mut Vec<u8>) -> u64 {
        let id = self.first_id + seq as u64;
        out.clear();
        out.extend_from_slice(b"{\"id\":");
        out.extend_from_slice(id.to_string().as_bytes());
        out.push(b',');
        out.extend_from_slice(self.bodies[seq % self.bodies.len()].as_bytes());
        out.push(b'\n');
        id
    }

    /// The full line of request `seq`, without its newline.
    pub fn line(&self, seq: usize) -> String {
        let mut out = Vec::new();
        self.write(seq, &mut out);
        out.pop();
        String::from_utf8(out).expect("request lines are ASCII")
    }
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'a> {
    /// Every connection keeps exactly one request in flight until the
    /// phase's duration has passed.
    Closed {
        /// Phase duration.
        duration: Duration,
    },
    /// Requests leave at their scheduled due times, whatever is in
    /// flight.
    Open {
        /// Due times and connections, ascending by due time.
        schedule: &'a [Slot],
    },
}

/// One answered request, as seen by the client.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The id the request carried (its reply must echo it).
    pub expected_id: u64,
    /// When the request was due, ns after the phase started.
    pub due_ns: u64,
    /// When it was written to the socket.
    pub sent_ns: u64,
    /// When its reply line was complete.
    pub recv_ns: u64,
    /// The scanned reply head (`None` if the line did not scan).
    pub head: Option<ReplyHead>,
}

/// Everything a phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Completions in arrival order.
    pub completions: Vec<Completion>,
    /// Time from phase start to the last reply, nanoseconds.
    pub elapsed_ns: u64,
    /// Raw reply lines of the sampled requests, by sequence number.
    pub kept: Vec<(usize, Vec<u8>)>,
}

/// Runs one timed phase over `conns` (all idle on entry and on exit).
/// Replies are scanned, not parsed; `keep(seq)` selects the replies
/// whose raw bytes are kept for later verification.
///
/// # Errors
///
/// Propagates socket failures, and fails if no reply arrives for
/// [`STALL`].
pub fn run_phase(
    conns: &mut [Conn],
    requests: &Requests<'_>,
    plan: Plan<'_>,
    keep: &dyn Fn(usize) -> bool,
) -> io::Result<PhaseResult> {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    let mut line = Vec::with_capacity(16 * 1024);
    let mut result = PhaseResult::default();
    let mut next = 0usize;

    let send = |conn: &mut Conn, seq: usize, due_ns: u64, line: &mut Vec<u8>| -> io::Result<()> {
        let id = requests.write(seq, line);
        let sent_ns = now();
        conn.stream.write_all(line)?;
        conn.outstanding.push_back(Pending {
            seq,
            id,
            due_ns,
            sent_ns,
        });
        Ok(())
    };

    let closed_deadline = match plan {
        Plan::Closed { duration } => {
            for conn in conns.iter_mut() {
                let t = now();
                send(conn, next, t, &mut line)?;
                next += 1;
            }
            Some(duration.as_nanos() as u64)
        }
        Plan::Open { .. } => None,
    };

    loop {
        if let Plan::Open { schedule } = plan {
            while next < schedule.len() && schedule[next].due_ns <= now() {
                let slot = schedule[next];
                send(&mut conns[slot.conn], next, slot.due_ns, &mut line)?;
                next += 1;
            }
        }
        let in_flight = conns.iter().any(|c| !c.outstanding.is_empty());
        let wait = match plan {
            Plan::Open { schedule } if next < schedule.len() => {
                Duration::from_nanos(schedule[next].due_ns.saturating_sub(now()))
            }
            _ if in_flight => STALL,
            _ => break,
        };
        if wait.is_zero() {
            continue;
        }
        let ready = wait_readable(conns, wait)?;
        if wait == STALL && !ready.contains(&true) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within the stall limit",
            ));
        }
        for (c, _) in ready.iter().enumerate().filter(|(_, r)| **r) {
            let conn = &mut conns[c];
            conn.fill()?;
            while let Some(reply) = conn.take_line() {
                let recv_ns = now();
                let pending = conn.outstanding.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
                })?;
                result.completions.push(Completion {
                    expected_id: pending.id,
                    due_ns: pending.due_ns,
                    sent_ns: pending.sent_ns,
                    recv_ns,
                    head: scan_reply(&reply),
                });
                result.elapsed_ns = recv_ns;
                if keep(pending.seq) {
                    result.kept.push((pending.seq, reply));
                }
                if closed_deadline.is_some_and(|d| recv_ns < d) {
                    send(conn, next, recv_ns, &mut line)?;
                    next += 1;
                }
            }
            conn.mark_scanned();
        }
    }
    Ok(result)
}
