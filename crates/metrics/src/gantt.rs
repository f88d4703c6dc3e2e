//! ASCII Gantt rendering and utilization analysis of simulator traces.
//!
//! Given the container/start/duration information of task-start events,
//! [`Gantt`] renders one row per container with a character per time
//! bucket, and [`utilization`] computes the busy fraction over time — the
//! quickest way to see whether a scheduler is idling capacity or packing
//! it.

/// One placed task attempt: container, start slot, duration, and the label
/// character to draw (e.g. a job's letter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanttSpan {
    /// Container (row) index.
    pub container: u32,
    /// Start slot.
    pub start: u64,
    /// Duration in slots.
    pub duration: u64,
    /// Single-character label (typically the job id mod 26 as a letter).
    pub label: char,
}

/// An ASCII Gantt chart.
#[derive(Debug, Clone, Default)]
pub struct Gantt {
    spans: Vec<GanttSpan>,
}

impl Gantt {
    /// Creates an empty chart.
    pub fn new() -> Self {
        Gantt::default()
    }

    /// Adds one span.
    pub fn span(&mut self, span: GanttSpan) -> &mut Self {
        self.spans.push(span);
        self
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the chart is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the chart with `width` character buckets; rows are
    /// containers (0..max container), `.` is idle. Overlapping spans on a
    /// container show the later span's label (the simulator never produces
    /// overlaps).
    pub fn render(&self, width: usize) -> String {
        if self.spans.is_empty() || width == 0 {
            return String::new();
        }
        let containers = self.spans.iter().map(|s| s.container).max().unwrap_or(0) as usize + 1;
        let end = self
            .spans
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or(1)
            .max(1);
        let scale = end as f64 / width as f64;
        let mut rows = vec![vec!['.'; width]; containers];
        for s in &self.spans {
            let from = (s.start as f64 / scale) as usize;
            let to = (((s.start + s.duration) as f64 / scale).ceil() as usize).min(width);
            for cell in rows[s.container as usize][from..to.max(from + 1).min(width)].iter_mut() {
                *cell = s.label;
            }
        }
        let mut out = String::new();
        for (c, row) in rows.iter().enumerate() {
            out.push_str(&format!("c{c:<3} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out.push_str(&format!("      0{:>width$}\n", end, width = width - 1));
        out
    }
}

/// Cluster utilization: the fraction of `capacity · makespan`
/// container·slots actually occupied by the given spans.
///
/// Returns 0 for empty input or zero capacity.
pub fn utilization(spans: &[GanttSpan], capacity: u32) -> f64 {
    if spans.is_empty() || capacity == 0 {
        return 0.0;
    }
    let busy: u64 = spans.iter().map(|s| s.duration).sum();
    let end = spans.iter().map(|s| s.start + s.duration).max().unwrap_or(1).max(1);
    busy as f64 / (capacity as u64 * end) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<GanttSpan> {
        vec![
            GanttSpan { container: 0, start: 0, duration: 10, label: 'a' },
            GanttSpan { container: 1, start: 0, duration: 5, label: 'a' },
            GanttSpan { container: 1, start: 5, duration: 5, label: 'b' },
        ]
    }

    #[test]
    fn render_shape() {
        let mut g = Gantt::new();
        for s in spans() {
            g.span(s);
        }
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        let out = g.render(10);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3); // 2 containers + axis
        assert!(lines[0].starts_with("c0"));
        assert_eq!(lines[0].matches('a').count(), 10);
        assert_eq!(lines[1].matches('a').count(), 5);
        assert_eq!(lines[1].matches('b').count(), 5);
    }

    #[test]
    fn render_scales_to_width() {
        let mut g = Gantt::new();
        g.span(GanttSpan { container: 0, start: 0, duration: 100, label: 'x' });
        g.span(GanttSpan { container: 0, start: 100, duration: 100, label: 'y' });
        let out = g.render(20);
        let row = out.lines().next().unwrap();
        assert_eq!(row.matches('x').count(), 10);
        assert_eq!(row.matches('y').count(), 10);
    }

    #[test]
    fn render_empty_and_degenerate() {
        assert_eq!(Gantt::new().render(10), "");
        let mut g = Gantt::new();
        g.span(GanttSpan { container: 0, start: 0, duration: 1, label: 'z' });
        assert_eq!(g.render(0), "");
        assert!(g.render(4).contains('z'));
    }

    #[test]
    fn idle_cells_are_dots() {
        let mut g = Gantt::new();
        g.span(GanttSpan { container: 0, start: 5, duration: 5, label: 'k' });
        let out = g.render(10);
        let row = out.lines().next().unwrap();
        assert!(row.contains('.'));
        assert_eq!(row.matches('k').count(), 5);
    }

    #[test]
    fn utilization_math() {
        // 20 busy container·slots over 2 containers × 10 slots = 100%.
        assert!((utilization(&spans(), 2) - 1.0).abs() < 1e-12);
        // Same spans on a 4-container cluster: 50%.
        assert!((utilization(&spans(), 4) - 0.5).abs() < 1e-12);
        assert_eq!(utilization(&[], 4), 0.0);
        assert_eq!(utilization(&spans(), 0), 0.0);
    }
}
