//! Delay factors and factor groups (§III-D).
//!
//! Out of the internal series, T-DAT distills 8 conclusive *factors*,
//! each with a *delay ratio* (series size ÷ analysis period), and folds
//! them into three top-level groups — sender, receiver, and network
//! limited — whose ratios use the *union* of the member series so that
//! overlapping behaviours are not double-counted.

use std::fmt;

use tdat_timeset::{SpanScratch, SpanSet};

use crate::config::AnalyzerConfig;
use crate::series::SeriesSet;

/// The eight conclusive delay factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Factor {
    /// The sending BGP process was idle (`SendAppLimited`).
    BgpSenderApp,
    /// Outstanding data pinned by the congestion window (`CwdBndOut`).
    TcpCongestionWindow,
    /// Packet losses local to the sender.
    SenderLocalLoss,
    /// The receiving BGP process could not keep up: outstanding bounded
    /// by a small or zero advertised window.
    BgpReceiverApp,
    /// Outstanding bounded by a comfortably large advertised window —
    /// the TCP window *setting* is the limit.
    TcpAdvertisedWindow,
    /// Packet losses local to the receiver.
    ReceiverLocalLoss,
    /// Path bandwidth.
    Bandwidth,
    /// Packet losses in the network.
    NetworkLoss,
}

impl Factor {
    /// All factors, in report order.
    pub const ALL: [Factor; 8] = [
        Factor::BgpSenderApp,
        Factor::TcpCongestionWindow,
        Factor::SenderLocalLoss,
        Factor::BgpReceiverApp,
        Factor::TcpAdvertisedWindow,
        Factor::ReceiverLocalLoss,
        Factor::Bandwidth,
        Factor::NetworkLoss,
    ];

    /// The group this factor belongs to.
    pub fn group(self) -> FactorGroup {
        match self {
            Factor::BgpSenderApp | Factor::TcpCongestionWindow | Factor::SenderLocalLoss => {
                FactorGroup::Sender
            }
            Factor::BgpReceiverApp | Factor::TcpAdvertisedWindow | Factor::ReceiverLocalLoss => {
                FactorGroup::Receiver
            }
            Factor::Bandwidth | Factor::NetworkLoss => FactorGroup::Network,
        }
    }

    /// The factor's name in reports and listings.
    pub const fn name(self) -> &'static str {
        match self {
            Factor::BgpSenderApp => "BGP sender app",
            Factor::TcpCongestionWindow => "TCP congestion window",
            Factor::SenderLocalLoss => "sender local loss",
            Factor::BgpReceiverApp => "BGP receiver app",
            Factor::TcpAdvertisedWindow => "TCP advertised window",
            Factor::ReceiverLocalLoss => "receiver local loss",
            Factor::Bandwidth => "bandwidth limited",
            Factor::NetworkLoss => "network packet loss",
        }
    }
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three top-level factor groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FactorGroup {
    /// Sender-side behaviour.
    Sender,
    /// Receiver-side behaviour.
    Receiver,
    /// Network path behaviour.
    Network,
}

impl FactorGroup {
    /// All groups, in report order.
    pub const ALL: [FactorGroup; 3] = [
        FactorGroup::Sender,
        FactorGroup::Receiver,
        FactorGroup::Network,
    ];

    /// The group's name in reports and listings.
    pub const fn name(self) -> &'static str {
        match self {
            FactorGroup::Sender => "sender",
            FactorGroup::Receiver => "receiver",
            FactorGroup::Network => "network",
        }
    }
}

impl fmt::Display for FactorGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The analyzer's quantitative output for one analysis period: the raw
/// 8-vector of factor ratios plus the 3-vector of group ratios
/// (§III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayVector {
    /// `(factor, delay ratio)` for all eight factors, in
    /// [`Factor::ALL`] order.
    pub factors: [(Factor, f64); 8],
    /// Sender-group ratio `R_s` (union of member series ÷ period).
    pub sender: f64,
    /// Receiver-group ratio `R_r`.
    pub receiver: f64,
    /// Network-group ratio `R_n`.
    pub network: f64,
}

impl DelayVector {
    /// The ratio of one factor.
    pub fn ratio(&self, factor: Factor) -> f64 {
        self.factors
            .iter()
            .find(|(f, _)| *f == factor)
            .map(|(_, r)| *r)
            .expect("all factors present")
    }

    /// The ratio of one group.
    pub fn group_ratio(&self, group: FactorGroup) -> f64 {
        match group {
            FactorGroup::Sender => self.sender,
            FactorGroup::Receiver => self.receiver,
            FactorGroup::Network => self.network,
        }
    }

    /// Groups whose ratio exceeds `threshold` — the *major* groups of
    /// §IV-A (default threshold 0.3, possibly several, possibly none).
    pub fn major_groups(&self, threshold: f64) -> Vec<FactorGroup> {
        FactorGroup::ALL
            .into_iter()
            .filter(|g| self.group_ratio(*g) > threshold)
            .collect()
    }

    /// Within `group`, the member factor with the largest ratio.
    pub fn dominant_factor_in(&self, group: FactorGroup) -> Factor {
        self.factors
            .iter()
            .filter(|(f, _)| f.group() == group)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("ratios are finite"))
            .map(|(f, _)| *f)
            .expect("every group has members")
    }

    /// The single largest factor overall.
    pub fn dominant_factor(&self) -> Factor {
        self.factors
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("ratios are finite"))
            .map(|(f, _)| *f)
            .expect("all factors present")
    }
}

impl fmt::Display for DelayVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "groups: sender {:.3} receiver {:.3} network {:.3}",
            self.sender, self.receiver, self.network
        )?;
        for (factor, ratio) in &self.factors {
            writeln!(f, "  {factor}: {ratio:.3}")?;
        }
        Ok(())
    }
}

/// The spans backing each factor, for drill-down and plotting.
#[derive(Debug, Clone, Default)]
pub struct FactorSpans {
    /// `(factor, flattened spans)` in [`Factor::ALL`] order.
    pub spans: Vec<(Factor, SpanSet)>,
}

/// Computes the factor spans from a series set, with a caller-provided
/// scratch pool. The shared intermediates (`AdvBndOut` flattened,
/// `SmallAdvBndOut`) are computed once into pooled buffers instead of
/// once per factor that needs them.
pub fn factor_spans_with(series: &SeriesSet, scratch: &mut SpanScratch) -> FactorSpans {
    let mut sets: [SpanSet; 8] = Default::default();
    factor_sets_into(series, scratch, &mut sets);
    FactorSpans {
        spans: Factor::ALL.into_iter().zip(sets).collect(),
    }
}

/// Writes each factor's spans into `sets`, in [`Factor::ALL`] order,
/// with the intermediates in pooled buffers.
fn factor_sets_into(series: &SeriesSet, scratch: &mut SpanScratch, sets: &mut [SpanSet; 8]) {
    let [sender_app, cwnd, sender_loss, bgp_receiver, tcp_adv, receiver_loss, bandwidth, network_loss] =
        sets;
    let mut adv = scratch.take();
    series.adv_bnd_out().span_set_into(&mut adv);
    let mut tmp = scratch.take();

    // SmallAdvBndOut = AdvBndOut ∩ SmallAdvWindow, computed once and
    // shared between the BgpReceiverApp and TcpAdvertisedWindow rows.
    let mut small = scratch.take();
    series.small_adv_window().span_set_into(&mut tmp);
    adv.intersect_into(&tmp, &mut small);

    // BgpReceiverApp = SmallAdvBndOut ∪ ZeroAdvBndOut.
    let mut zero = scratch.take();
    series.zero_window().span_set_into(&mut tmp);
    tmp.clipped_into(series.period, &mut zero);
    small.union_into(&zero, bgp_receiver);

    // TcpAdvertisedWindow = LargeAdvBndOut ∪ (AdvBndOut ∖ SmallAdvBndOut).
    let mut large = scratch.take();
    series.large_adv_window().span_set_into(&mut tmp);
    adv.intersect_into(&tmp, &mut large);
    let mut rest = scratch.take();
    adv.difference_into(&small, &mut rest);
    large.union_into(&rest, tcp_adv);

    // Back in reverse, so the next call takes each buffer for the same
    // role and it has grown to fit.
    for set in [rest, large, zero, small, tmp, adv] {
        scratch.put(set);
    }

    series.send_app_limited().span_set_into(sender_app);
    series.cwd_bnd_out().span_set_into(cwnd);
    series.send_local_loss().span_set_into(sender_loss);
    series.recv_local_loss().span_set_into(receiver_loss);
    series.bandwidth_limited().span_set_into(bandwidth);
    series.network_loss().span_set_into(network_loss);
}

/// Computes the delay vector for `series` over its analysis period, with
/// a caller-provided scratch pool: each factor's spans and the group
/// unions run through pooled buffers, so a warm pool allocates nothing.
pub fn delay_vector_with(
    series: &SeriesSet,
    _config: &AnalyzerConfig,
    scratch: &mut SpanScratch,
) -> DelayVector {
    let period = series.period;
    let mut sets: [SpanSet; 8] = std::array::from_fn(|_| scratch.take());
    factor_sets_into(series, scratch, &mut sets);
    let mut factors = [(Factor::BgpSenderApp, 0.0); 8];
    for (i, (factor, set)) in Factor::ALL.into_iter().zip(&sets).enumerate() {
        factors[i] = (factor, set.ratio(period));
    }
    let mut pair = [scratch.take(), scratch.take()];
    let mut group_union = |group: FactorGroup| -> f64 {
        let mut union = 0;
        pair[union].clear();
        for (factor, set) in Factor::ALL.into_iter().zip(&sets) {
            if factor.group() == group {
                let [a, b] = &mut pair;
                let (from, to) = if union == 0 { (a, b) } else { (b, a) };
                from.union_into(set, to);
                union = 1 - union;
            }
        }
        pair[union].ratio(period)
    };
    let sender = group_union(FactorGroup::Sender);
    let receiver = group_union(FactorGroup::Receiver);
    let network = group_union(FactorGroup::Network);
    // Back in reverse, as in `factor_sets_into`.
    let [first, second] = pair;
    scratch.put(second);
    scratch.put(first);
    for set in sets.into_iter().rev() {
        scratch.put(set);
    }
    DelayVector {
        factors,
        sender,
        receiver,
        network,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesBuilder, Slot};
    use tdat_timeset::{EventSeries, Span};

    fn series_with(period: Span) -> SeriesBuilder {
        SeriesBuilder::new(period, 1448, 65535)
    }

    #[test]
    fn factor_group_mapping() {
        assert_eq!(Factor::BgpSenderApp.group(), FactorGroup::Sender);
        assert_eq!(Factor::TcpAdvertisedWindow.group(), FactorGroup::Receiver);
        assert_eq!(Factor::NetworkLoss.group(), FactorGroup::Network);
    }

    #[test]
    fn group_ratio_uses_union_not_sum() {
        let period = Span::from_micros(0, 1_000_000);
        let mut s = series_with(period);
        // Two overlapping sender-side series covering the same 40%.
        let mut sal: EventSeries<u32> = EventSeries::new();
        sal.push(Span::from_micros(0, 400_000), 0);
        let mut cwd: EventSeries<u32> = EventSeries::new();
        cwd.push(Span::from_micros(200_000, 400_000), 0);
        s[Slot::SendAppLimited] = sal;
        s[Slot::CwdBndOut] = cwd;
        let v = delay_vector_with(
            &s.build(),
            &AnalyzerConfig::default(),
            &mut SpanScratch::new(),
        );
        assert!((v.ratio(Factor::BgpSenderApp) - 0.4).abs() < 1e-9);
        assert!((v.ratio(Factor::TcpCongestionWindow) - 0.2).abs() < 1e-9);
        assert!((v.sender - 0.4).abs() < 1e-9, "union, not 0.6");
        assert_eq!(v.receiver, 0.0);
        assert_eq!(v.network, 0.0);
    }

    #[test]
    fn major_groups_and_dominant_factor() {
        let period = Span::from_micros(0, 1_000_000);
        let mut s = series_with(period);
        let mut sal: EventSeries<u32> = EventSeries::new();
        sal.push(Span::from_micros(0, 800_000), 0);
        s[Slot::SendAppLimited] = sal;
        let mut loss: EventSeries<u32> = EventSeries::new();
        loss.push(Span::from_micros(800_000, 1_000_000), 0);
        s[Slot::RecvLocalLoss] = loss;
        let v = delay_vector_with(
            &s.build(),
            &AnalyzerConfig::default(),
            &mut SpanScratch::new(),
        );
        assert_eq!(v.major_groups(0.3), vec![FactorGroup::Sender]);
        assert_eq!(
            v.major_groups(0.1),
            vec![FactorGroup::Sender, FactorGroup::Receiver]
        );
        assert_eq!(v.dominant_factor(), Factor::BgpSenderApp);
        assert_eq!(
            v.dominant_factor_in(FactorGroup::Receiver),
            Factor::ReceiverLocalLoss
        );
    }

    #[test]
    fn zero_window_counts_toward_bgp_receiver() {
        let period = Span::from_micros(0, 1_000_000);
        let mut s = series_with(period);
        let mut zw: EventSeries<u32> = EventSeries::new();
        zw.push(Span::from_micros(0, 500_000), 0);
        s[Slot::ZeroWindow] = zw;
        let v = delay_vector_with(
            &s.build(),
            &AnalyzerConfig::default(),
            &mut SpanScratch::new(),
        );
        assert!((v.ratio(Factor::BgpReceiverApp) - 0.5).abs() < 1e-9);
        assert!((v.receiver - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_renders_all_lines() {
        let s = series_with(Span::from_micros(0, 100));
        let v = delay_vector_with(
            &s.build(),
            &AnalyzerConfig::default(),
            &mut SpanScratch::new(),
        );
        let text = v.to_string();
        assert!(text.contains("groups:"));
        assert!(text.contains("BGP sender app"));
        assert!(text.contains("network packet loss"));
    }
}
