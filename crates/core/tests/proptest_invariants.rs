//! Property tests of the analyzer's algebraic invariants.

use proptest::prelude::*;
use tdat::{
    delay_vector_with, AnalyzerConfig, Factor, FactorGroup, SeriesBuilder, SeriesSet, Slot,
};
use tdat_timeset::{EventSeries, Span, SpanScratch};

const PERIOD: Span = Span::from_micros(0, 1_000_000);

fn arb_series() -> impl Strategy<Value = EventSeries<u32>> {
    prop::collection::vec((0i64..1_000_000, 1i64..200_000), 0..8).prop_map(|spans| {
        let mut s = EventSeries::new();
        for (start, len) in spans {
            s.push(Span::from_micros(start, (start + len).min(1_000_000)), 0);
        }
        s
    })
}

fn arb_series_set() -> impl Strategy<Value = SeriesSet> {
    (
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
        arb_series(),
    )
        .prop_map(|(sal, cwd, sll, zw, rll, bw, nl, adv, small, large)| {
            let mut built = SeriesBuilder::new(PERIOD, 1448, 65_535);
            for (slot, series) in [
                (Slot::SendAppLimited, sal),
                (Slot::CwdBndOut, cwd),
                (Slot::SendLocalLoss, sll),
                (Slot::ZeroWindow, zw),
                (Slot::RecvLocalLoss, rll),
                (Slot::BandwidthLimited, bw),
                (Slot::NetworkLoss, nl),
                (Slot::AdvBndOut, adv),
                (Slot::SmallAdvWindow, small),
                (Slot::LargeAdvWindow, large),
            ] {
                built[slot] = series;
            }
            built.build()
        })
}

proptest! {
    #[test]
    fn ratios_are_probabilities(set in arb_series_set()) {
        let v = delay_vector_with(&set, &AnalyzerConfig::default(), &mut SpanScratch::new());
        for (factor, ratio) in v.factors {
            prop_assert!((0.0..=1.0).contains(&ratio), "{factor}: {ratio}");
        }
        for group in FactorGroup::ALL {
            let r = v.group_ratio(group);
            prop_assert!((0.0..=1.0).contains(&r), "{group}: {r}");
        }
    }

    #[test]
    fn group_ratio_bounded_by_members(set in arb_series_set()) {
        let v = delay_vector_with(&set, &AnalyzerConfig::default(), &mut SpanScratch::new());
        for group in FactorGroup::ALL {
            let members: Vec<f64> = Factor::ALL
                .iter()
                .filter(|f| f.group() == group)
                .map(|f| v.ratio(*f))
                .collect();
            let sum: f64 = members.iter().sum();
            let max = members.iter().copied().fold(0.0, f64::max);
            let g = v.group_ratio(group);
            // Union is at least the largest member, at most the sum
            // (within float tolerance).
            prop_assert!(g + 1e-9 >= max, "{group}: {g} < max {max}");
            prop_assert!(g <= sum + 1e-9, "{group}: {g} > sum {sum}");
        }
    }

    #[test]
    fn major_groups_monotone_in_threshold(set in arb_series_set()) {
        let v = delay_vector_with(&set, &AnalyzerConfig::default(), &mut SpanScratch::new());
        let low = v.major_groups(0.2);
        let high = v.major_groups(0.5);
        for g in &high {
            prop_assert!(low.contains(g), "raising the threshold cannot add groups");
        }
    }

    #[test]
    fn dominant_factor_belongs_to_its_group(set in arb_series_set()) {
        let v = delay_vector_with(&set, &AnalyzerConfig::default(), &mut SpanScratch::new());
        for group in FactorGroup::ALL {
            prop_assert_eq!(v.dominant_factor_in(group).group(), group);
        }
        let overall = v.dominant_factor();
        let max_ratio = Factor::ALL.iter().map(|f| v.ratio(*f)).fold(0.0, f64::max);
        prop_assert!((v.ratio(overall) - max_ratio).abs() < 1e-12);
    }

    #[test]
    fn zero_ack_bug_subset_of_zero_window(set in arb_series_set()) {
        let bug = set.zero_ack_bug();
        let zw = set.zero_adv_bnd_out();
        prop_assert_eq!(bug.intersection(&zw), bug.clone(), "conflict must lie inside the zero-window periods");
    }
}
