//! Point-in-time views of the recorder and their serialised forms.
//!
//! A [`MetricsSnapshot`] carries both running totals and per-window
//! deltas (against the previous snapshot taken from the same recorder), so a
//! consumer can render rates without keeping its own history. Snapshots
//! serialise to one JSON object per line ([`MetricsSnapshot::to_json_line`],
//! parsed back by [`MetricsSnapshot::from_json_line`]) and to the
//! Prometheus text exposition format ([`MetricsSnapshot::to_prometheus`]).

use crate::json::{self, Value};
use crate::{Counter, Gauge, Hist};
use tvs_trace::perfetto::json_escape;

/// Version stamped into the `"schema"` field of every JSONL snapshot
/// line. Bump when the line shape changes incompatibly; readers treat a
/// missing field as version 1 (the pre-stamp format) and ignore unknown
/// versions' extra fields thanks to the lenient parser.
pub const JSONL_SCHEMA_VERSION: u64 = 2;

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A counter's running total plus its delta since the previous snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterWindow {
    /// Value accumulated since the recorder was created.
    pub total: u64,
    /// Increment since the previous snapshot (equals `total` on the
    /// first snapshot).
    pub delta: u64,
}

/// A frozen view of one log₂-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the q-th sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(ub, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return ub;
            }
        }
        self.buckets.last().map(|&(ub, _)| ub).unwrap_or(0)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A coalesced view of every shard at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// 1-based snapshot sequence number.
    pub tick: u64,
    /// Timestamp, µs — virtual time in simulator runs, wall time since
    /// the run started otherwise.
    pub t_us: u64,
    /// Free-form run label (typically the dispatch policy).
    pub label: String,
    /// Worker-lane count the recorder was sized for.
    pub workers: usize,
    /// One window per [`Counter::ALL`] entry, in that order.
    pub counters: Vec<CounterWindow>,
    /// Per-lane dispatch totals (length `workers`).
    pub lane_dispatch: Vec<u64>,
    /// Per-lane dispatch deltas for this window.
    pub lane_dispatch_delta: Vec<u64>,
    /// Per-lane steal totals.
    pub lane_steal: Vec<u64>,
    /// Per-lane steal deltas for this window.
    pub lane_steal_delta: Vec<u64>,
    /// One value per [`Gauge::ALL`] entry, in that order.
    pub gauges: Vec<u64>,
    /// One view per [`Hist::ALL`] entry, in that order.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// The window for counter `c`.
    pub fn counter(&self, c: Counter) -> CounterWindow {
        self.counters.get(c as usize).copied().unwrap_or_default()
    }

    /// The value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges.get(g as usize).copied().unwrap_or(0)
    }

    /// The view of histogram `h`.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        static EMPTY: HistSnapshot = HistSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        self.hists.get(h as usize).unwrap_or(&EMPTY)
    }

    /// Fraction of worker time wasted on discarded work during this
    /// window: `wasted / (busy + wasted)` over the deltas, falling back
    /// to the running totals when the window saw no work at all.
    pub fn waste_ratio(&self) -> f64 {
        let busy = self.counter(Counter::BusyUs);
        let wasted = self.counter(Counter::WastedUs);
        let (b, w) = if busy.delta + wasted.delta > 0 {
            (busy.delta, wasted.delta)
        } else {
            (busy.total, wasted.total)
        };
        if b + w == 0 {
            0.0
        } else {
            w as f64 / (b + w) as f64
        }
    }

    /// Human name for the degradation-level gauge value.
    pub fn degradation_name(&self) -> &'static str {
        match self.gauge(Gauge::DegradationLevel) {
            1 => "capped",
            2 => "suspended",
            3 => "paused",
            4 => "probing",
            _ => "full",
        }
    }

    /// Serialise to one line of JSON (no trailing newline). Field and
    /// key order are fixed, so identical snapshots serialise to
    /// identical bytes — the sim-determinism tests rely on this.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        push_kv(&mut s, "schema", &JSONL_SCHEMA_VERSION.to_string());
        s.push(',');
        push_kv(&mut s, "tick", &self.tick.to_string());
        s.push(',');
        push_kv(&mut s, "t_us", &self.t_us.to_string());
        s.push(',');
        push_kv(
            &mut s,
            "label",
            &format!("\"{}\"", json_escape(&self.label)),
        );
        s.push(',');
        push_kv(&mut s, "workers", &self.workers.to_string());
        s.push(',');
        // Counters: name → [total, delta].
        s.push_str("\"counters\":{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let w = self.counter(*c);
            s.push_str(&format!("\"{}\":[{},{}]", c.name(), w.total, w.delta));
        }
        s.push_str("},");
        push_arr(&mut s, "lane_dispatch", &self.lane_dispatch);
        s.push(',');
        push_arr(&mut s, "lane_dispatch_delta", &self.lane_dispatch_delta);
        s.push(',');
        push_arr(&mut s, "lane_steal", &self.lane_steal);
        s.push(',');
        push_arr(&mut s, "lane_steal_delta", &self.lane_steal_delta);
        s.push(',');
        // Gauges: name → value.
        s.push_str("\"gauges\":{");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", g.name(), self.gauge(*g)));
        }
        s.push_str("},");
        // Histograms: name → {count, sum, buckets: [[ub, n], ...]}.
        s.push_str("\"hists\":{");
        for (i, h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let hs = self.hist(*h);
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.name(),
                hs.count,
                hs.sum
            ));
            for (j, (ub, n)) in hs.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{ub},{n}]"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Parse a line produced by [`MetricsSnapshot::to_json_line`].
    /// Unknown counters/gauges/hists in the line are ignored; ones
    /// missing from the line come back zero — both directions tolerate
    /// schema drift across versions.
    pub fn from_json_line(line: &str) -> Option<MetricsSnapshot> {
        let v = json::parse(line.trim())?;
        let tick = v.get("tick")?.as_u64()?;
        let t_us = v.get("t_us")?.as_u64()?;
        let label = v.get("label")?.as_str()?.to_string();
        let workers = v.get("workers")?.as_u64()? as usize;
        let cobj = v.get("counters")?.as_obj()?;
        let counters = Counter::ALL
            .iter()
            .map(|c| {
                let pair = cobj.get(c.name()).and_then(Value::as_arr).unwrap_or(&[]);
                CounterWindow {
                    total: pair.first().and_then(Value::as_u64).unwrap_or(0),
                    delta: pair.get(1).and_then(Value::as_u64).unwrap_or(0),
                }
            })
            .collect();
        let arr_u64 = |key: &str| -> Vec<u64> {
            v.get(key)
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default()
        };
        let gobj = v.get("gauges")?.as_obj()?;
        let gauges = Gauge::ALL
            .iter()
            .map(|g| gobj.get(g.name()).and_then(Value::as_u64).unwrap_or(0))
            .collect();
        let hobj = v.get("hists")?.as_obj()?;
        let hists = Hist::ALL
            .iter()
            .map(|h| {
                let Some(hv) = hobj.get(h.name()) else {
                    return HistSnapshot::default();
                };
                let buckets = hv
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|pair| {
                                let p = pair.as_arr()?;
                                Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                HistSnapshot {
                    count: hv.get("count").and_then(Value::as_u64).unwrap_or(0),
                    sum: hv.get("sum").and_then(Value::as_u64).unwrap_or(0),
                    buckets,
                }
            })
            .collect();
        Some(MetricsSnapshot {
            tick,
            t_us,
            label,
            workers,
            counters,
            lane_dispatch: arr_u64("lane_dispatch"),
            lane_dispatch_delta: arr_u64("lane_dispatch_delta"),
            lane_steal: arr_u64("lane_steal"),
            lane_steal_delta: arr_u64("lane_steal_delta"),
            gauges,
            hists,
        })
    }

    /// Render as Prometheus text exposition format (version 0.0.4):
    /// `tvs_<counter>_total` counters (plus `tvs_lane_dispatch_total` /
    /// `tvs_lane_steal_total` with a `lane` label), `tvs_<gauge>`
    /// gauges, and `tvs_<hist>` histograms with cumulative `le` buckets.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("# TYPE tvs_run_info gauge\n");
        s.push_str(&format!(
            "tvs_run_info{{label=\"{}\"}} 1\n",
            prom_escape(&self.label)
        ));
        for c in Counter::ALL {
            if c == Counter::LaneDispatch || c == Counter::Steal {
                continue; // exposed per-lane below
            }
            let name = format!("tvs_{}_total", c.name());
            s.push_str(&format!("# TYPE {name} counter\n"));
            s.push_str(&format!("{name} {}\n", self.counter(c).total));
        }
        s.push_str("# TYPE tvs_lane_dispatch_total counter\n");
        for (i, v) in self.lane_dispatch.iter().enumerate() {
            s.push_str(&format!("tvs_lane_dispatch_total{{lane=\"{i}\"}} {v}\n"));
        }
        s.push_str("# TYPE tvs_lane_steal_total counter\n");
        for (i, v) in self.lane_steal.iter().enumerate() {
            s.push_str(&format!("tvs_lane_steal_total{{lane=\"{i}\"}} {v}\n"));
        }
        for g in Gauge::ALL {
            let name = format!("tvs_{}", g.name());
            s.push_str(&format!("# TYPE {name} gauge\n"));
            s.push_str(&format!("{name} {}\n", self.gauge(g)));
        }
        s.push_str("# TYPE tvs_waste_ratio gauge\n");
        s.push_str(&format!("tvs_waste_ratio {}\n", self.waste_ratio()));
        for h in Hist::ALL {
            let name = format!("tvs_{}", h.name());
            let hs = self.hist(h);
            s.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for &(ub, n) in &hs.buckets {
                cum += n;
                s.push_str(&format!("{name}_bucket{{le=\"{ub}\"}} {cum}\n"));
            }
            s.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hs.count));
            s.push_str(&format!("{name}_sum {}\n", hs.sum));
            s.push_str(&format!("{name}_count {}\n", hs.count));
        }
        s
    }
}

fn push_kv(s: &mut String, k: &str, v: &str) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
    s.push_str(v);
}

fn push_arr(s: &mut String, k: &str, vals: &[u64]) {
    s.push('"');
    s.push_str(k);
    s.push_str("\":[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> MetricsSnapshot {
        let h = Recorder::enabled(2);
        h.set_label("Balanced");
        h.add(0, Counter::LaneDispatch, 7);
        h.add(1, Counter::Steal, 2);
        h.add_control(Counter::Commits, 3);
        h.add(0, Counter::BusyUs, 900);
        h.add(1, Counter::WastedUs, 100);
        h.gauge_set(Gauge::DegradationLevel, 1);
        h.gauge_set(Gauge::CascadeMax, 4);
        h.record(Hist::CheckLatencyUs, 17);
        h.record(Hist::CheckLatencyUs, 130);
        h.snapshot().unwrap()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let line = snap.to_json_line();
        let back = MetricsSnapshot::from_json_line(&line).expect("parse");
        assert_eq!(snap, back);
        // Determinism: serialising the parsed value reproduces the bytes.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn waste_ratio_uses_window_deltas() {
        let snap = sample();
        let r = snap.waste_ratio();
        assert!(
            (r - 0.1).abs() < 1e-9,
            "900 busy + 100 wasted → 0.1, got {r}"
        );
    }

    #[test]
    fn quantiles_approximate_by_bucket_upper_bound() {
        let hs = HistSnapshot {
            count: 10,
            sum: 0,
            buckets: vec![(1, 5), (3, 3), (127, 2)],
        };
        assert_eq!(hs.quantile(0.5), 1);
        assert_eq!(hs.quantile(0.8), 3);
        assert_eq!(hs.quantile(0.99), 127);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE tvs_commits_total counter"));
        assert!(text.contains("tvs_commits_total 3"));
        assert!(text.contains("tvs_lane_dispatch_total{lane=\"0\"} 7"));
        assert!(text.contains("tvs_lane_steal_total{lane=\"1\"} 2"));
        assert!(text.contains("tvs_degradation_level 1"));
        assert!(text.contains("tvs_check_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("tvs_check_latency_us_count 2"));
        assert!(text.contains("tvs_waste_ratio 0.1"));
        // Cumulative le buckets must be monotone.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("tvs_check_latency_us_bucket{le=\""))
        {
            if line.contains("+Inf") {
                continue;
            }
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn jsonl_carries_schema_version() {
        let line = sample().to_json_line();
        assert!(
            line.starts_with(&format!("{{\"schema\":{JSONL_SCHEMA_VERSION},")),
            "schema stamp must lead the line: {line}"
        );
        // Pre-stamp (version 1) lines still parse.
        let v1 =
            r#"{"tick":1,"t_us":5,"label":"x","workers":1,"counters":{},"gauges":{},"hists":{}}"#;
        assert!(MetricsSnapshot::from_json_line(v1).is_some());
    }

    #[test]
    fn waste_ratio_is_zero_not_nan_when_idle() {
        let h = Recorder::enabled(1);
        let snap = h.snapshot().unwrap();
        let r = snap.waste_ratio();
        assert!(!r.is_nan(), "idle snapshot must not yield NaN");
        assert_eq!(r, 0.0);
        assert!(snap.to_prometheus().contains("tvs_waste_ratio 0\n"));
    }

    #[test]
    fn awkward_labels_escape_and_round_trip() {
        let label = "pol\"icy\\w\nnewline";
        let h = Recorder::enabled(1);
        h.set_label(label);
        let snap = h.snapshot().unwrap();
        // JSONL: the writer escapes, the parser restores.
        let back = MetricsSnapshot::from_json_line(&snap.to_json_line()).expect("parse");
        assert_eq!(back.label, label);
        // Prometheus: label values escape backslash, quote and newline,
        // and every exposition line stays a single line.
        let text = snap.to_prometheus();
        assert!(
            text.contains(r#"tvs_run_info{label="pol\"icy\\w\nnewline"} 1"#),
            "escaped run label missing from exposition:\n{text}"
        );
        for line in text.lines() {
            let unescaped = line.matches('"').count() - line.matches("\\\"").count();
            assert!(unescaped % 2 == 0, "unbalanced quoting in {line:?}");
        }
    }

    #[test]
    fn counter_window_delta_survives_u64_wraparound() {
        let h = Recorder::enabled(1);
        h.add(0, Counter::BusyUs, u64::MAX - 5);
        let first = h.snapshot().unwrap().counter(Counter::BusyUs);
        assert_eq!(first.total, u64::MAX - 5);
        // The atomic wraps: (MAX - 5) + 10 ≡ 4 (mod 2⁶⁴).
        h.add(0, Counter::BusyUs, 10);
        let second = h.snapshot().unwrap().counter(Counter::BusyUs);
        assert_eq!(second.total, 4);
        // total < baseline: the delta clamps to 0 instead of exploding
        // to ~2⁶⁴ or panicking.
        assert_eq!(second.delta, 0);
        // The window after the wrap is sane again.
        h.add(0, Counter::BusyUs, 7);
        let third = h.snapshot().unwrap().counter(Counter::BusyUs);
        assert_eq!(third.delta, 7);
    }

    #[test]
    fn missing_fields_parse_as_zero() {
        // Older recordings also carry counters that have since been
        // retired: they are skipped, so `tvs-top --replay` still reads
        // those files.
        let line = r#"{"tick":1,"t_us":5,"label":"x","workers":1,"counters":{"commits":[2,2],"stale_completions_rejected":[1,1],"worker_respawns":[1,1],"undo_replays":[3,3],"watchdog_cancels":[4,4]},"gauges":{},"hists":{}}"#;
        let s = MetricsSnapshot::from_json_line(line).expect("lenient parse");
        assert_eq!(s.counters.len(), Counter::ALL.len());
        assert!(!s.to_json_line().contains("undo_replays"));
        assert!(!s.to_json_line().contains("watchdog_cancels"));
        assert_eq!(s.counter(Counter::Commits).total, 2);
        assert_eq!(s.counter(Counter::Rollbacks).total, 0);
        assert_eq!(s.gauge(Gauge::DegradationLevel), 0);
        assert_eq!(s.hist(Hist::CheckLatencyUs).count, 0);
    }
}
