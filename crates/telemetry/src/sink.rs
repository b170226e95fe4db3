//! Telemetry sinks: where finalized flow records are exported.
//!
//! The bus owns a list of sinks and hands every [`FlowRecord`] to each of
//! them as requests complete. Sinks are pull-free — they see records in
//! completion order and never block the engine on anything but their own
//! I/O (the JSONL sink buffers writes).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::flow::FlowRecord;

/// A consumer of finalized flow records.
pub trait TelemetrySink {
    /// Called once per completed request, in completion order.
    fn on_record(&mut self, record: &FlowRecord);

    /// Flushes buffered output (end of run, or before a live tail reads).
    fn flush(&mut self) {}
}

/// Streams flow records to a file as JSON Lines, one record per line
/// (`FlowRecord::to_jsonl`).
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the export file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn on_record(&mut self, record: &FlowRecord) {
        // An export-file write error should not kill a simulation that
        // the caller may still want the in-memory results of; drop the
        // line.
        let _ = writeln!(self.out, "{}", record.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Retains every record in memory — the query-handle sink for tests and
/// short runs.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Records in completion order.
    pub records: Vec<FlowRecord>,
}

impl TelemetrySink for MemorySink {
    fn on_record(&mut self, record: &FlowRecord) {
        self.records.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowCompletion;
    use crate::json::validate_json_line;
    use hetis_workload::{RequestId, SloClass, TenantId};

    fn record(req: u64) -> FlowRecord {
        crate::flow::FlowTable::default().finalize(&FlowCompletion {
            req: RequestId(req),
            class: SloClass::Batch,
            tenant: TenantId(0),
            instance: 0,
            arrival: 0.0,
            first_token: 1.0,
            completion: 2.0,
            input_len: 8,
            output_len: 4,
            preemptions: 0,
            redispatches: 0,
            kv_bytes: 1024,
            prefix_hit_tokens: 0,
            prefix_shared_bytes: 0,
        })
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("hetis_telemetry_sink_test.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        for i in 0..5 {
            sink.on_record(&record(i));
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in lines {
            validate_json_line(line).expect("sink line parses");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memory_sink_retains_order() {
        let mut sink = MemorySink::default();
        for i in 0..3 {
            sink.on_record(&record(i));
        }
        let ids: Vec<u64> = sink.records.iter().map(|r| r.req.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
