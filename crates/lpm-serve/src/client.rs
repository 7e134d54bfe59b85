//! Blocking client for the line-delimited JSON protocol.
//!
//! One request object out, one response object back, over a persistent
//! TCP connection. Used by `lpm-cli client` and the integration tests
//! (including the `cli_serve` kill-resume soak) — all consumers speak through
//! this type so the wire format has exactly one implementation on each
//! side.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

use lpm_harness::{spec_to_json, SweepSpec};
use lpm_telemetry::Value;

use crate::proto::obj;
use crate::state::StateDir;

/// Read the server's actual bound address from a state directory's
/// `endpoint` file (written after bind, so port 0 is resolvable).
pub fn read_endpoint(state_dir: &Path) -> Result<String, String> {
    let path = StateDir::new(state_dir).endpoint_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read endpoint file {}: {e}", path.display()))?;
    let addr = text.trim();
    if addr.is_empty() {
        return Err(format!("endpoint file {} is empty", path.display()));
    }
    Ok(addr.to_string())
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server address.
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Connect via a state directory's `endpoint` file.
    pub fn connect_state_dir(state_dir: &Path) -> Result<Client, String> {
        Client::connect(read_endpoint(state_dir)?.as_str())
    }

    /// Send one request object; return the response object.
    pub fn request(&mut self, req: &Value) -> Result<Value, String> {
        let mut line = req.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Value::parse(resp.trim()).map_err(|e| format!("unparsable response: {e}"))
    }

    /// Submit a sweep spec. Returns the raw response (check `ok`,
    /// `reason`, `id`, `status`, `cached`).
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: &SweepSpec,
        jobs: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<Value, String> {
        let mut fields = vec![
            ("type", Value::Str("submit".into())),
            ("tenant", Value::Str(tenant.into())),
            ("spec", spec_to_json(spec)?),
        ];
        if let Some(j) = jobs {
            fields.push(("jobs", Value::Uint(j)));
        }
        if let Some(d) = deadline_ms {
            fields.push(("deadline_ms", Value::Uint(d)));
        }
        self.request(&obj(fields))
    }

    fn id_request(&mut self, ty: &str, id: &str) -> Result<Value, String> {
        self.request(&obj(vec![
            ("type", Value::Str(ty.into())),
            ("id", Value::Str(id.into())),
        ]))
    }

    /// Query a job's status.
    pub fn status(&mut self, id: &str) -> Result<Value, String> {
        self.id_request("status", id)
    }

    /// Cancel a job.
    pub fn cancel(&mut self, id: &str) -> Result<Value, String> {
        self.id_request("cancel", id)
    }

    /// Fetch a completed job's report text (JSONL).
    pub fn report_text(&mut self, id: &str) -> Result<String, String> {
        let resp = self.id_request("report", id)?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "report request failed: {} ({})",
                resp.get("reason").and_then(Value::as_str).unwrap_or("?"),
                resp.get("detail").and_then(Value::as_str).unwrap_or(""),
            ));
        }
        Ok(resp
            .get("report")
            .and_then(Value::as_str)
            .ok_or("response has no report field")?
            .to_string())
    }

    /// List all known jobs.
    pub fn list(&mut self) -> Result<Value, String> {
        self.request(&obj(vec![("type", Value::Str("list".into()))]))
    }

    /// Fetch recent job-lifecycle events.
    pub fn events(&mut self) -> Result<Value, String> {
        self.request(&obj(vec![("type", Value::Str("events".into()))]))
    }

    /// Fetch live service counters. `format` is `"json"` or
    /// `"prometheus"`; the server validates it.
    pub fn metrics(&mut self, format: &str) -> Result<Value, String> {
        self.request(&obj(vec![
            ("type", Value::Str("metrics".into())),
            ("format", Value::Str(format.into())),
        ]))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Value, String> {
        self.request(&obj(vec![("type", Value::Str("ping".into()))]))
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Value, String> {
        self.request(&obj(vec![("type", Value::Str("shutdown".into()))]))
    }

    /// Poll a job until it reaches a terminal status or `timeout`
    /// elapses. Returns the final status response.
    pub fn wait(&mut self, id: &str, timeout: Duration) -> Result<Value, String> {
        let start = lpm_telemetry::wall_now();
        loop {
            let resp = self.status(id)?;
            let status = resp.get("status").and_then(Value::as_str).unwrap_or("");
            if matches!(status, "completed" | "failed" | "cancelled") {
                return Ok(resp);
            }
            if start.elapsed() >= timeout {
                return Err(format!(
                    "job {id} still {status} after {}ms",
                    timeout.as_millis()
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
