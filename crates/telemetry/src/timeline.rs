//! Per-node utilization timeline: renders the virtual scheduler's
//! `sched.*` points as an ASCII Gantt chart, one lane per node, with the
//! chaos events (crashes, blacklists, degradations) overlaid — the
//! visual counterpart of [`crate::VirtualCriticalPath`]'s attribution.
//!
//! ```text
//! == node timeline: job wc (0 .. 12.000 s, 1 col ~= 0.200 s) ==
//! node 0 |MMMMMMMMMM..RRRRRRRR....| busy 75%
//! node 1 |mmmmmmmm....RRRR........| busy 50%
//! node 2 |xxxx!-------------------| busy 17%, crashed @ 5.000 s
//! legend: M map  m re-executed map  R reduce  x failed/killed  . idle  ~ degraded  - down  ! crash
//! ```

use crate::analysis::segment_makespan;
use crate::analysis::{dominant_segment, fmt_s, parse_label_f64, parse_label_usize, JobSegment};
use crate::event::{Event, EventKind};
use crate::monitor::fmt_bytes;
use std::fmt::Write as _;

/// One node's lane in the Gantt chart.
#[derive(Debug, Clone)]
pub struct NodeLane {
    /// The virtual node id.
    pub node: usize,
    /// Virtual seconds this node's slots spent running attempts
    /// (successes plus failed/killed work).
    pub busy_s: f64,
    /// Job-local crash time, when scripted.
    pub crash_s: Option<f64>,
    /// Job-local degradation start, when scripted.
    pub degrade_s: Option<f64>,
    cells: Vec<char>,
}

/// The per-node utilization chart for the dominant job of a stream.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Name of the charted job.
    pub job: String,
    /// Virtual seconds spanned by the chart (the job's scheduled
    /// makespan, overheads excluded).
    pub makespan_s: f64,
    /// One lane per node, in node order.
    pub lanes: Vec<NodeLane>,
    /// Highest `mem.live_bytes` sample in the stream (the tracking
    /// allocator's live heap at phase boundaries); 0 when the stream
    /// predates the memory ledger.
    pub peak_live_bytes: u64,
}

/// Default chart width, columns.
const DEFAULT_WIDTH: usize = 60;

impl Timeline {
    /// Charts the dominant job at the default width. `None` when the
    /// stream has no successful `sched.*` points.
    pub fn from_events(events: &[Event]) -> Option<Self> {
        Self::with_width(events, DEFAULT_WIDTH)
    }

    /// Charts the dominant job with `width` time columns (min 10).
    pub fn with_width(events: &[Event], width: usize) -> Option<Self> {
        let seg = dominant_segment(events)?;
        let makespan_s = segment_makespan(&seg);
        if makespan_s <= 0.0 {
            return None;
        }
        let mut timeline = Self::build(&seg, makespan_s, width.max(10));
        timeline.peak_live_bytes = events
            .iter()
            .filter(|e| e.kind == EventKind::Count && e.name == crate::registry::MEM_LIVE_BYTES)
            .filter_map(|e| e.value)
            .fold(0.0, f64::max) as u64;
        Some(timeline)
    }

    fn build(seg: &JobSegment, makespan_s: f64, width: usize) -> Self {
        let num_nodes = seg
            .points
            .iter()
            .filter_map(|p| parse_label_usize(p, "node"))
            .max()
            .map_or(0, |n| n + 1);
        let col =
            |t: f64| -> usize { ((t / makespan_s * width as f64).floor() as usize).min(width - 1) };

        let mut lanes: Vec<NodeLane> = (0..num_nodes)
            .map(|node| NodeLane {
                node,
                busy_s: 0.0,
                crash_s: None,
                degrade_s: None,
                cells: vec!['.'; width],
            })
            .collect();

        // Chaos annotations first so task paint wins where they overlap.
        for p in &seg.points {
            let Some(node) = parse_label_usize(p, "node") else {
                continue;
            };
            let Some(lane) = lanes.get_mut(node) else {
                continue;
            };
            match p.name {
                "chaos.crash" => {
                    let at = p.value.unwrap_or(0.0);
                    lane.crash_s = Some(at);
                    let from = if at <= 0.0 { 0 } else { col(at) };
                    for c in lane.cells[from..].iter_mut() {
                        *c = '-';
                    }
                }
                "chaos.degrade" => {
                    let at = p.value.unwrap_or(0.0).max(0.0);
                    lane.degrade_s = Some(at);
                }
                _ => {}
            }
        }

        // Attempts: failed/killed work first, successes on top.
        let mut paint = |p: &Event, glyph: char| {
            let (Some(node), Some(start), Some(dur)) = (
                parse_label_usize(p, "node"),
                parse_label_f64(p, "start"),
                p.value,
            ) else {
                return;
            };
            let Some(lane) = lanes.get_mut(node) else {
                return;
            };
            lane.busy_s += dur;
            let (c0, c1) = (col(start), col((start + dur).min(makespan_s)));
            for c in lane.cells[c0..=c1].iter_mut() {
                *c = glyph;
            }
        };
        for p in &seg.points {
            if matches!(
                p.name,
                "sched.map.failed"
                    | "sched.map.killed"
                    | "sched.reduce.failed"
                    | "sched.reduce.killed"
            ) {
                paint(p, 'x');
            }
        }
        for p in &seg.points {
            match p.name {
                "sched.map" => paint(
                    p,
                    if p.label("reexec").is_some() {
                        'm'
                    } else {
                        'M'
                    },
                ),
                "sched.reduce" => paint(p, 'R'),
                _ => {}
            }
        }

        // Overlay markers last: degraded idle time and the crash instant.
        for lane in lanes.iter_mut() {
            if let Some(at) = lane.degrade_s {
                for c in lane.cells[col(at)..].iter_mut() {
                    if *c == '.' {
                        *c = '~';
                    }
                }
            }
            if let Some(at) = lane.crash_s {
                if at >= 0.0 {
                    lane.cells[col(at)] = '!';
                }
            }
        }

        Self {
            job: seg.name.clone(),
            makespan_s,
            lanes,
            peak_live_bytes: 0,
        }
    }

    /// Renders the chart with an axis line and a glyph legend.
    pub fn render(&self) -> String {
        let width = self.lanes.first().map_or(0, |l| l.cells.len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== node timeline: job {} (0 .. {}, 1 col ~= {}) ==",
            self.job,
            fmt_s(self.makespan_s),
            fmt_s(self.makespan_s / width.max(1) as f64),
        );
        for lane in &self.lanes {
            let chart: String = lane.cells.iter().collect();
            let mut notes = format!(
                "busy {:.0}%",
                100.0 * (lane.busy_s / self.makespan_s).min(1.0)
            );
            if let Some(at) = lane.crash_s {
                if at < 0.0 {
                    notes.push_str(", dead before job start");
                } else {
                    let _ = write!(notes, ", crashed @ {}", fmt_s(at));
                }
            }
            if let Some(at) = lane.degrade_s {
                let _ = write!(notes, ", degraded from {}", fmt_s(at));
            }
            let _ = writeln!(out, "node {:<2} |{chart}| {notes}", lane.node);
        }
        let _ = writeln!(
            out,
            "legend: M map  m re-executed map  R reduce  x failed/killed  . idle  ~ degraded  - down  ! crash"
        );
        if self.peak_live_bytes > 0 {
            let _ = writeln!(
                out,
                "heap: peak live {} at phase boundaries",
                fmt_bytes(self.peak_live_bytes)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn point(name: &'static str, value: f64, labels: &[(&str, &str)]) -> Event {
        Event {
            ts_us: 0,
            kind: EventKind::Point,
            name,
            span_id: 0,
            parent_id: 0,
            dur_us: None,
            value: Some(value),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        }
    }

    fn sched(
        name: &'static str,
        task: usize,
        node: usize,
        start_s: f64,
        dur_s: f64,
        extra: &[(&str, &str)],
    ) -> Event {
        let task = task.to_string();
        let node = node.to_string();
        let start_s = format!("{start_s:.6}");
        let mut labels: Vec<(&str, &str)> =
            vec![("task", &task), ("node", &node), ("start", &start_s)];
        labels.extend_from_slice(extra);
        point(name, dur_s, &labels)
    }

    #[test]
    fn lanes_paint_tasks_crashes_and_legend() {
        let events = vec![
            sched("sched.map", 0, 0, 0.0, 5.0, &[]),
            sched("sched.map", 1, 1, 0.0, 4.0, &[("reexec", "1")]),
            sched("sched.map.killed", 2, 2, 0.0, 5.0, &[]),
            point("chaos.crash", 5.0, &[("node", "2")]),
            sched("sched.reduce", 0, 0, 5.0, 5.0, &[]),
        ];
        let t = Timeline::with_width(&events, 10).unwrap();
        assert_eq!(t.makespan_s, 10.0);
        assert_eq!(t.lanes.len(), 3);
        // Node 0: first half map, second half reduce.
        let lane0: String = t.lanes[0].cells.iter().collect();
        assert_eq!(lane0, "MMMMMRRRRR");
        // Node 1: re-executed map glyph, then idle.
        let lane1: String = t.lanes[1].cells.iter().collect();
        assert!(lane1.starts_with("mmmm"), "{lane1}");
        assert!(lane1.ends_with('.'), "{lane1}");
        // Node 2: killed attempt, crash marker, dead afterwards.
        let lane2: String = t.lanes[2].cells.iter().collect();
        assert!(lane2.contains('x'), "{lane2}");
        assert!(lane2.contains('!'), "{lane2}");
        assert!(lane2.ends_with("----"), "{lane2}");
        assert_eq!(t.lanes[2].crash_s, Some(5.0));
        let text = t.render();
        assert!(text.contains("legend:"), "{text}");
        assert!(text.contains("crashed @ 5.000 s"), "{text}");
    }

    #[test]
    fn heap_footer_reports_the_peak_live_sample() {
        let mut events = vec![
            sched("sched.map", 0, 0, 0.0, 5.0, &[]),
            sched("sched.reduce", 0, 0, 5.0, 5.0, &[]),
        ];
        // No mem samples: no footer.
        let quiet = Timeline::with_width(&events, 10).unwrap();
        assert_eq!(quiet.peak_live_bytes, 0);
        assert!(!quiet.render().contains("heap:"));
        for live in [40_000_000.0, 91_000_000.0, 12_000_000.0] {
            events.push(Event {
                ts_us: 0,
                kind: EventKind::Count,
                name: "mem.live_bytes",
                span_id: 0,
                parent_id: 0,
                dur_us: None,
                value: Some(live),
                labels: Vec::new(),
            });
        }
        let t = Timeline::with_width(&events, 10).unwrap();
        assert_eq!(t.peak_live_bytes, 91_000_000);
        assert!(t.render().contains("heap: peak live 91.0 MB"));
    }

    #[test]
    fn degraded_idle_time_is_marked() {
        let events = vec![
            sched("sched.map", 0, 0, 0.0, 2.0, &[]),
            sched("sched.map", 1, 1, 0.0, 10.0, &[]),
            point("chaos.degrade", 4.0, &[("node", "0"), ("factor", "3")]),
        ];
        let t = Timeline::with_width(&events, 10).unwrap();
        let lane0: String = t.lanes[0].cells.iter().collect();
        assert!(lane0.ends_with("~~~~~~"), "{lane0}");
        assert_eq!(t.lanes[0].degrade_s, Some(4.0));
    }

    #[test]
    fn empty_stream_has_no_timeline() {
        assert!(Timeline::from_events(&[]).is_none());
    }

    fn span(kind: EventKind, name: &'static str, span_id: u64, ts_us: u64) -> Event {
        Event {
            ts_us,
            kind,
            name,
            span_id,
            parent_id: 0,
            dur_us: (kind == EventKind::SpanEnd).then_some(ts_us),
            value: None,
            labels: vec![("job".to_owned(), name.to_owned())],
        }
    }

    #[test]
    fn zero_task_run_has_no_timeline() {
        // A job that opened and closed without scheduling a single
        // attempt (e.g. an empty input split) must not chart: there is
        // no scheduled makespan to scale the lanes against.
        let events = vec![
            span(EventKind::SpanStart, "job", 1, 0),
            span(EventKind::SpanEnd, "job", 1, 5_000),
        ];
        assert!(Timeline::from_events(&events).is_none());
    }

    #[test]
    fn single_node_cluster_charts_one_lane() {
        let events = vec![
            sched("sched.map", 0, 0, 0.0, 4.0, &[]),
            sched("sched.map", 1, 0, 4.0, 4.0, &[]),
            sched("sched.reduce", 0, 0, 8.0, 2.0, &[]),
        ];
        let t = Timeline::with_width(&events, 10).unwrap();
        assert_eq!(t.lanes.len(), 1);
        assert_eq!(t.makespan_s, 10.0);
        assert!((t.lanes[0].busy_s - 10.0).abs() < 1e-9);
        let lane: String = t.lanes[0].cells.iter().collect();
        assert_eq!(lane, "MMMMMMMMRR");
        assert!(t.render().contains("busy 100%"));
    }

    #[test]
    fn chaos_points_without_attempts_have_no_timeline() {
        // A run that died before any attempt finished leaves only
        // chaos markers behind — nothing schedulable to chart.
        let events = vec![
            point("chaos.crash", 0.0, &[("node", "0")]),
            point("chaos.crash", 0.0, &[("node", "1")]),
            point("chaos.degrade", 2.0, &[("node", "2"), ("factor", "4")]),
            point("chaos.blacklist", 1.0, &[("node", "0")]),
        ];
        assert!(Timeline::from_events(&events).is_none());
    }
}
