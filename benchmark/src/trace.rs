//! Spans and per-call accounting, recorded from outside the library.
//!
//! Two kinds of record, both kept in memory until the run ends:
//!
//! * **Laps** for calls made per event or per op ([`Call`]). The driver
//!   says which call it is entering; all wall time until the next
//!   `enter` belongs to that call. One clock read per boundary, and a
//!   pass's laps sum to its wall time by construction, so a lap is
//!   already *self* time: entering a library call suspends the driver's
//!   own lap. Each lap keeps count, total ns, max ns and allocator calls.
//! * **Spans** `{name, layer, start_ns, end_ns, parent, op_id}` for
//!   set-up calls (nested; self time = span minus children) and for the
//!   sampled ops (`instance % 256 == 0`, post → reap).
//!
//! With `on == false` every method is one predictable branch, which is
//! what the untraced passes run.

use std::time::Instant;

use crate::alloc;
use crate::json::Value;

/// Ops whose instance is a multiple of this keep a full span.
pub const SPAN_EVERY: u64 = 256;

/// The calls made per event or per op, with the layer each belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// The benchmark's own loop: matching, bookkeeping, value checks.
    Driver,
    Step,
    RunUntil,
    GetBurst,
    WalkBurst,
    ReapInto,
    Put,
    PutReap,
    ShardFor,
}

pub const CALLS: [(Call, &str, &str); 9] = [
    (Call::Driver, "driver", "benchmark"),
    (Call::Step, "Simulator::step", "rnic_sim::sim"),
    (Call::RunUntil, "Simulator::run_until", "rnic_sim::sim"),
    (Call::GetBurst, "Session::get_burst", "redn_kv::session"),
    (Call::WalkBurst, "Session::walk_burst", "redn_kv::session"),
    (Call::ReapInto, "Session::reap_into", "redn_kv::session"),
    (Call::Put, "PutSession::put", "redn_cluster"),
    (Call::PutReap, "PutSession::reap", "redn_cluster"),
    (Call::ShardFor, "Cluster::shard_for", "redn_cluster"),
];

#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub allocs: u64,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Set on op spans: the op's offload instance.
    pub op_id: Option<u64>,
    /// Trace row: 0 for calls, 1 + client for ops.
    pub lane: u32,
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    cur: usize,
    last_ns: u64,
    last_allocs: u64,
    laps: [Lap; CALLS.len()],
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            cur: 0,
            last_ns: 0,
            last_allocs: 0,
            laps: [Lap::default(); CALLS.len()],
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Host clock for an op that keeps a full span (every
    /// `SPAN_EVERY`-th instance of a traced pass), else 0.
    pub fn sample_ns(&self, instance: u64) -> u64 {
        if self.on && instance.is_multiple_of(SPAN_EVERY) {
            self.now_ns().max(1)
        } else {
            0
        }
    }

    /// Start lap accounting for a pass (the time before it belongs to
    /// no call).
    pub fn begin_pass(&mut self) {
        if self.on {
            self.cur = Call::Driver as usize;
            self.last_ns = self.now_ns();
            self.last_allocs = alloc::calls();
        }
    }

    /// Close the current lap and open one for `call`.
    #[inline]
    pub fn enter(&mut self, call: Call) {
        if !self.on {
            return;
        }
        let (now, allocs) = (self.now_ns(), alloc::calls());
        let lap = &mut self.laps[self.cur];
        let ns = now - self.last_ns;
        lap.total_ns += ns;
        lap.max_ns = lap.max_ns.max(ns);
        lap.allocs += allocs - self.last_allocs;
        self.cur = call as usize;
        self.laps[self.cur].count += 1;
        (self.last_ns, self.last_allocs) = (now, allocs);
    }

    pub fn lap(&self, call: Call) -> Lap {
        self.laps[call as usize]
    }

    /// Wall ns covered by all laps so far.
    pub fn lap_total_ns(&self) -> u64 {
        self.laps.iter().map(|l| l.total_ns).sum()
    }

    /// Open a nested set-up span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op_id: None,
            lane: 0,
        });
    }

    /// Close the innermost open span; returns its duration in ns (0
    /// when tracing is off).
    pub fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Record a sampled op, post → reap, under the innermost open span.
    pub fn op(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        id: u64,
        lane: u32,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: self.now_ns(),
                parent: self.open.last().copied(),
                op_id: Some(id),
                lane,
            });
        }
    }

    /// Duration of the first span called `name`, in ns.
    pub fn span_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i) && c.op_id.is_none())
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Everything recorded, as Chrome trace-event JSON (`chrome://tracing`
    /// or Perfetto): spans as complete events, laps as one summary
    /// object.
    pub fn chrome_json(&self) -> Value {
        let mut events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![(
                    "self_us".to_string(),
                    Value::Num(self.self_ns(i) as f64 / 1e3),
                )];
                if let Some(p) = s.parent {
                    args.push((
                        "parent".to_string(),
                        Value::Str(self.spans[p].name.to_string()),
                    ));
                }
                if let Some(id) = s.op_id {
                    args.push(("op_id".to_string(), Value::Num(id as f64)));
                }
                Value::obj([
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(s.layer.to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.lane))),
                    ("args", Value::Obj(args)),
                ])
            })
            .collect();
        let laps = CALLS
            .iter()
            .map(|&(call, name, layer)| {
                let l = self.lap(call);
                (
                    name.to_string(),
                    Value::obj([
                        ("layer", Value::Str(layer.to_string())),
                        ("count", Value::Num(l.count as f64)),
                        ("total_ns", Value::Num(l.total_ns as f64)),
                        ("max_ns", Value::Num(l.max_ns as f64)),
                        ("allocs", Value::Num(l.allocs as f64)),
                    ]),
                )
            })
            .collect();
        events.push(Value::obj([
            ("name", Value::Str("laps".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Num(1.0)),
            ("args", Value::Obj(laps)),
        ]));
        Value::obj([("traceEvents", Value::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_table_is_indexed_by_discriminant() {
        for (i, (call, _, _)) in CALLS.iter().enumerate() {
            assert_eq!(*call as usize, i);
        }
    }

    #[test]
    fn laps_cover_the_pass_and_spans_nest() {
        let mut t = Tracer::new(true);
        t.begin("setup", "benchmark");
        t.begin("deploy", "redn_kv::serving");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.end();
        let outer = t.end();
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.self_ns(0) <= outer - inner);

        let t0 = t.now_ns();
        t.begin_pass();
        t.enter(Call::Step);
        t.enter(Call::Driver);
        t.enter(Call::Step);
        t.enter(Call::Driver);
        let wall = t.now_ns() - t0;
        assert_eq!(t.lap(Call::Step).count, 2);
        assert!(t.lap_total_ns() <= wall);

        t.op("get", "redn_kv::session", t0, 256, 3);
        let text = t.chrome_json().to_string();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("setup", "benchmark");
        t.enter(Call::Step);
        assert_eq!(t.end(), 0);
        assert_eq!(t.lap(Call::Step).count, 0);
        assert!(t.spans.is_empty());
    }
}
