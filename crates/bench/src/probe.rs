//! Probes of a live `scorpio_serve`, shared by the `scorpio_load` smoke
//! probe and `bench_obs`'s live-scrape contract: an in-process server,
//! the reply-status test, the sliding-window liveness check and the
//! trace-id round trip into the exemplar ring.

use std::io;
use std::net::SocketAddr;
use std::thread::{self, JoinHandle};

use scorpio_obs::json::Value;
use scorpio_serve::{Client, Server, ServerConfig, ServerSummary};

/// `true` when a reply carries `"ok": true`.
pub fn is_ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// A `scorpio_serve` running on a thread of this process.
#[derive(Debug)]
pub struct LocalServer {
    /// The analyze/control address (an ephemeral localhost port).
    pub addr: SocketAddr,
    /// The HTTP metrics sidecar's address, when the config asked for one.
    pub metrics_addr: Option<SocketAddr>,
    handle: JoinHandle<io::Result<ServerSummary>>,
}

impl LocalServer {
    /// Binds `config` on `127.0.0.1:0` (its `addr` is ignored) and
    /// serves it on a new thread.
    ///
    /// # Panics
    ///
    /// Panics if the server cannot bind.
    pub fn spawn(config: ServerConfig) -> LocalServer {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        })
        .expect("bind in-process server");
        let addr = server.local_addr().expect("server local_addr");
        let metrics_addr = server.metrics_local_addr();
        LocalServer {
            addr,
            metrics_addr,
            handle: thread::spawn(move || server.run()),
        }
    }

    /// Sends `shutdown` over `client` and joins the server thread.
    ///
    /// # Panics
    ///
    /// Panics if the request fails or the server's run ended in error.
    pub fn shutdown(self, client: &mut Client) -> ServerSummary {
        client.shutdown().expect("shutdown request");
        self.handle.join().expect("server thread").expect("server run")
    }
}

/// Checks that every one of `kernels` has requests in its 1m sliding
/// window. The 1m span is the liveness probe: on a badly loaded box a
/// run can stretch past the 10s span's retention (its rotation is
/// covered by the obs crate's unit and property tests), while 60s of
/// slack keeps the check deterministic.
///
/// # Errors
///
/// Names every kernel whose window is empty, or the failed request.
pub fn check_windows(client: &mut Client, kernels: &[&str]) -> Result<(), String> {
    let windows = client.window().map_err(|e| format!("window verb: {e}"))?;
    let records = windows.get("kernels").and_then(Value::as_arr).unwrap_or(&[]);
    let empty: Vec<&str> = kernels
        .iter()
        .copied()
        .filter(|&kernel| {
            let seen = records
                .iter()
                .find(|rec| rec.get("kernel").and_then(Value::as_str) == Some(kernel))
                .and_then(|rec| rec.get("spans"))
                .and_then(Value::as_arr)
                .and_then(|spans| {
                    spans
                        .iter()
                        .find(|s| s.get("span").and_then(Value::as_str) == Some("1m"))
                })
                .and_then(|s| s.get("requests"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            seen <= 0.0
        })
        .collect();
    if empty.is_empty() {
        Ok(())
    } else {
        Err(format!("window verb: 1m window empty for {}", empty.join(", ")))
    }
}

/// Sends the analyze request `line` tagged with the hex trace id
/// `trace_id` and checks the round trip: the reply echoes the id
/// zero-padded to 16 digits, the exemplar ring retained it, and its
/// spans reassemble into a tree (a `serve.request` root and at least
/// one nested child). Returns the exemplar's span count.
///
/// Run it while the exemplar ring still has room, so retention is
/// unconditional.
///
/// # Errors
///
/// Describes the first check that failed.
///
/// # Panics
///
/// Panics if `trace_id` is not hex or `line` is not a JSON object.
pub fn check_trace_roundtrip(
    client: &mut Client,
    line: &str,
    trace_id: &str,
) -> Result<usize, String> {
    let full_id = format!(
        "{:016x}",
        u64::from_str_radix(trace_id, 16).expect("trace id must be hex")
    );
    let body = line.strip_suffix('}').expect("request line must be a JSON object");
    let reply = client
        .request(&format!(r#"{body},"trace_id":"{trace_id}"}}"#))
        .map_err(|e| format!("trace probe: {e}"))?;
    if !is_ok(&reply) {
        return Err(format!(
            "trace probe: error reply: {}",
            reply.get("error").and_then(Value::as_str).unwrap_or("?")
        ));
    }
    if reply.get("trace_id").and_then(Value::as_str) != Some(full_id.as_str()) {
        return Err("trace probe: reply did not echo the supplied trace id".to_string());
    }
    let dump = client.exemplars().map_err(|e| format!("exemplars verb: {e}"))?;
    let exemplar = dump
        .get("exemplars")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|e| e.get("trace_id").and_then(Value::as_str) == Some(full_id.as_str()))
        .ok_or("trace probe: trace id not retained in the exemplar ring")?;
    let spans = exemplar.get("spans").and_then(Value::as_arr).unwrap_or(&[]);
    fn path(span: &Value) -> Option<&str> {
        span.get("path").and_then(Value::as_str)
    }
    let has_root = spans.iter().any(|s| path(s) == Some("serve.request"));
    let has_child = spans
        .iter()
        .any(|s| path(s).is_some_and(|p| p.starts_with("serve.request/")));
    if !has_root || !has_child {
        return Err(format!(
            "trace probe: span tree not reassemblable ({} spans, root: {has_root}, nested: {has_child})",
            spans.len()
        ));
    }
    Ok(spans.len())
}
