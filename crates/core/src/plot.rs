//! BGPlot — textual square-wave rendering of event series (Fig. 11).
//!
//! The paper visualizes series as binary square curves above the TCP
//! time–sequence plot. This module renders the same picture as text:
//! one row per series, `▁` where the series is inactive and `█` where a
//! time range covers the column.

use tdat_timeset::{Micros, Span, SpanSet};

use crate::series::{SeriesSet, Slot};

/// Renders named span sets as aligned square waves over `window`.
///
/// # Examples
///
/// ```
/// use tdat::plot::render_waves;
/// use tdat_timeset::{Span, SpanSet};
///
/// let series = vec![
///     ("Loss".to_string(), SpanSet::from_span(Span::from_micros(25, 50))),
/// ];
/// let plot = render_waves(&series, Span::from_micros(0, 100), 20);
/// assert!(plot.contains("Loss"));
/// assert!(plot.contains('█'));
/// ```
pub fn render_waves(series: &[(String, SpanSet)], window: Span, width: usize) -> String {
    let width = width.max(10);
    let label_width = series
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    let total = window.duration().as_micros().max(1);
    for (name, set) in series {
        out.push_str(&format!("{name:>label_width$} "));
        for col in 0..width {
            let start = window.start + Micros(total * col as i64 / width as i64);
            let end = window.start + Micros(total * (col as i64 + 1) / width as i64);
            let cell = Span::new(start, end.max(start + Micros(1)));
            let covered = !set.intersection(&SpanSet::from_span(cell)).is_empty();
            out.push(if covered { '█' } else { '▁' });
        }
        out.push('\n');
    }
    // Time axis.
    out.push_str(&format!("{:>label_width$} ", ""));
    out.push_str(&format!(
        "|{:-^w$}|\n",
        format!(" {} .. {} ", window.start, window.end),
        w = width.saturating_sub(2)
    ));
    out
}

/// Renders the classic series of a [`SeriesSet`] (the Fig. 11 stack)
/// over the analysis period.
pub fn render_series_set(series: &SeriesSet, width: usize) -> String {
    let rows: Vec<(String, SpanSet)> = [
        Slot::Transmission,
        Slot::SendAppLimited,
        Slot::UpstreamLoss,
        Slot::DownstreamLoss,
        Slot::CwdBndOut,
        Slot::AdvBndOut,
        Slot::ZeroWindow,
    ]
    .into_iter()
    .map(|slot| (slot.name().to_string(), series.get(slot).to_span_set()))
    .collect();
    render_waves(&rows, series.period, width)
}

/// Renders a textual gap-length distribution (the Fig. 17 curve): the
/// sorted gap durations as a fixed-width column chart.
pub fn render_gap_distribution(gaps: &[Micros], height: usize) -> String {
    if gaps.is_empty() {
        return String::from("(no gaps)\n");
    }
    let mut sorted: Vec<i64> = gaps.iter().map(|g| g.as_micros()).collect();
    sorted.sort_unstable();
    let max = *sorted.last().expect("nonempty") as f64;
    let height = height.max(4);
    let mut out = String::new();
    for row in (0..height).rev() {
        let level = max * (row as f64 + 0.5) / height as f64;
        for &g in &sorted {
            out.push(if g as f64 >= level { '█' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{} gaps, min {} max {}\n",
        sorted.len(),
        Micros(sorted[0]),
        Micros(*sorted.last().expect("nonempty"))
    ));
    out
}

/// Renders a tcptrace-style time–sequence plot (the background of
/// Figs. 5–8): data segments as `·`, retransmissions as `R`, ACK level
/// as `-`, over a character grid.
pub fn render_time_sequence(
    data: &[(Micros, u32, bool)], // (time, seq, is_retransmission)
    acks: &[(Micros, u32)],
    width: usize,
    height: usize,
) -> String {
    if data.is_empty() {
        return String::from("(no data segments)\n");
    }
    let width = width.max(20);
    let height = height.max(8);
    let t0 = data
        .iter()
        .map(|(t, _, _)| *t)
        .chain(acks.iter().map(|(t, _)| *t))
        .min()
        .expect("nonempty");
    let t1 = data
        .iter()
        .map(|(t, _, _)| *t)
        .chain(acks.iter().map(|(t, _)| *t))
        .max()
        .expect("nonempty");
    let s0 = data.iter().map(|(_, s, _)| *s).min().expect("nonempty");
    let s1 = data.iter().map(|(_, s, _)| *s).max().expect("nonempty");
    let dt = (t1 - t0).as_micros().max(1);
    let ds = (s1.wrapping_sub(s0)).max(1) as i64;
    let col = |t: Micros| (((t - t0).as_micros() * (width as i64 - 1)) / dt) as usize;
    let row = |seq: u32| {
        let rel = seq.wrapping_sub(s0) as i64;
        height - 1 - ((rel * (height as i64 - 1)) / ds).clamp(0, height as i64 - 1) as usize
    };
    let mut grid = vec![vec![' '; width]; height];
    for (t, ack) in acks.iter().map(|(t, a)| (*t, *a)) {
        let rel = ack.wrapping_sub(s0) as i64;
        if (0..=ds).contains(&rel) {
            let cell = &mut grid[row(ack)][col(t)];
            if *cell == ' ' {
                *cell = '-';
            }
        }
    }
    for (t, seq, retx) in data {
        let cell = &mut grid[row(*seq)][col(*t)];
        *cell = if *retx { 'R' } else { '·' };
    }
    let mut out = String::with_capacity(height * (width + 1) + 64);
    for line in grid {
        out.extend(line);
        out.push('\n');
    }
    out.push_str(&format!("time {t0} .. {t1}, seq {s0} .. {s1}\n"));
    out
}

/// Renders the time–sequence plot of an analysis (data direction of the
/// shifted trace, with retransmission labels highlighted).
pub fn render_analysis_time_sequence(
    analysis: &crate::Analysis,
    width: usize,
    height: usize,
) -> String {
    let mut data = Vec::new();
    let mut label_iter = analysis.labels.iter();
    for seg in analysis.trace.data_segments() {
        let label = label_iter.next();
        if seg.payload_len == 0 {
            continue;
        }
        let retx = label.is_some_and(|l| l.is_retransmission());
        data.push((seg.time, seg.seq, retx));
    }
    let acks: Vec<(Micros, u32)> = analysis
        .trace
        .ack_segments()
        .map(|s| (s.time, s.ack))
        .collect();
    render_time_sequence(&data, &acks, width, height)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_align_with_coverage() {
        let series = vec![
            (
                "first".to_string(),
                SpanSet::from_span(Span::from_micros(0, 50)),
            ),
            (
                "second".to_string(),
                SpanSet::from_span(Span::from_micros(50, 100)),
            ),
        ];
        let plot = render_waves(&series, Span::from_micros(0, 100), 10);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 3);
        let first_wave: String = lines[0].chars().rev().take(10).collect();
        let second_wave: String = lines[1].chars().rev().take(10).collect();
        // first: left half covered; second: right half.
        assert_eq!(first_wave.chars().filter(|&c| c == '█').count(), 5);
        assert_eq!(second_wave.chars().filter(|&c| c == '█').count(), 5);
        assert_ne!(first_wave, second_wave);
    }

    #[test]
    fn empty_series_renders_flat() {
        let series = vec![("quiet".to_string(), SpanSet::new())];
        let plot = render_waves(&series, Span::from_micros(0, 100), 10);
        assert!(!plot.lines().next().unwrap().contains('█'));
    }

    #[test]
    fn gap_distribution_monotone() {
        let gaps: Vec<Micros> = (1..20).map(|i| Micros(i * 1000)).collect();
        let plot = render_gap_distribution(&gaps, 5);
        assert!(plot.contains("19 gaps"));
        // The top row has fewer filled cells than the bottom row.
        let lines: Vec<&str> = plot.lines().collect();
        let top = lines[0].chars().filter(|&c| c == '█').count();
        let bottom = lines[4].chars().filter(|&c| c == '█').count();
        assert!(top < bottom);
    }

    #[test]
    fn empty_gaps_handled() {
        assert_eq!(render_gap_distribution(&[], 5), "(no gaps)\n");
    }

    #[test]
    fn time_sequence_marks_retransmissions() {
        let data = vec![
            (Micros(0), 1000u32, false),
            (Micros(100), 2000, false),
            (Micros(200), 1000, true), // retransmission of the first
            (Micros(300), 3000, false),
        ];
        let acks = vec![(Micros(150), 2000u32), (Micros(350), 3000)];
        let plot = render_time_sequence(&data, &acks, 40, 10);
        assert!(plot.contains('R'));
        assert!(plot.contains('·'));
        assert!(plot.contains('-'));
        assert!(plot.contains("seq 1000 .. 3000"));
    }

    #[test]
    fn time_sequence_empty_input() {
        assert_eq!(
            render_time_sequence(&[], &[], 40, 10),
            "(no data segments)\n"
        );
    }
}
