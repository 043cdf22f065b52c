//! Spans around the benchmark's own calls into the program, kept in memory
//! during the run and written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one client request share `req`; `req` 0 is
/// work that belongs to no request (a cluster build).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The in-memory span log of one run; disabled in untraced runs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a span that started at `start` and ends now; returns its
    /// duration in nanoseconds (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        start: Instant,
    ) -> u64 {
        let Some(spans) = &mut self.spans else {
            return 0;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            req,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        dur_ns
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.req, parent, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
