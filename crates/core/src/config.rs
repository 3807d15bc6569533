//! Analyzer configuration.

/// Where the sniffer sat relative to the connection — a configured
/// setting, as the paper leaves it to the user's knowledge of the
/// collection setup (§III-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnifferLocation {
    /// Next to the receiver (the paper's monitoring deployments):
    /// downstream losses are receiver-local; upstream losses are
    /// network-or-sender.
    #[default]
    NearReceiver,
    /// Next to the sender: upstream losses are sender-local; downstream
    /// losses are network-or-receiver.
    NearSender,
    /// Somewhere in the middle: neither loss direction is "local".
    Middle,
}

/// Tunables of the T-DAT analyzer: the sniffer vantage and the
/// thresholds the paper's experiments vary. Defaults follow the paper
/// (§III-C, §IV). The gaps and margins it fixes are constants where
/// they are read: the window-bound margin (3 MSS), the shortest
/// sender-idle gap (5 ms), the flight gap without an RTT (10 ms) and
/// the congestion-window clocking slack (2 ms) in the
/// [`series`](crate::series) rules, and the gap chaining retransmissions
/// into one episode (2 s) in
/// [`find_consecutive_losses`](crate::find_consecutive_losses).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// Sniffer vantage.
    pub sniffer: SnifferLocation,
    /// An advertised window below `small_window_mss × MSS` is *small*
    /// (receiver application cannot keep up); within the same margin of
    /// the maximum it is *large*. The paper adopts 3 from T-RAT \[28,38\].
    pub small_window_mss: f64,
    /// Group delay ratio above which a factor group is *major*
    /// (§IV-A; default 0.3, qualitatively stable in 0.3–0.5).
    pub major_threshold: f64,
    /// Consecutive retransmissions in one episode before it counts as a
    /// consecutive-loss problem (§IV-B; default 8).
    pub consecutive_loss_threshold: usize,
    /// Skip the ACK-flight shifting preprocessing step (§III-B1) —
    /// used by the ablation study; leave `false` for receiver-side
    /// traces.
    pub disable_ack_shift: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            sniffer: SnifferLocation::NearReceiver,
            small_window_mss: 3.0,
            major_threshold: 0.3,
            consecutive_loss_threshold: 8,
            disable_ack_shift: false,
        }
    }
}

impl AnalyzerConfig {
    /// Starts a validated builder from the paper's defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use tdat::AnalyzerConfig;
    ///
    /// let config = AnalyzerConfig::builder()
    ///     .major_threshold(0.4)
    ///     .consecutive_loss_threshold(12)
    ///     .build()?;
    /// assert_eq!(config.consecutive_loss_threshold, 12);
    /// # Ok::<(), tdat::Error>(())
    /// ```
    pub fn builder() -> AnalyzerConfigBuilder {
        AnalyzerConfigBuilder {
            config: AnalyzerConfig::default(),
        }
    }
}

/// Builder for [`AnalyzerConfig`] with validation at
/// [`build`](AnalyzerConfigBuilder::build); created by
/// [`AnalyzerConfig::builder`].
#[derive(Debug, Clone)]
pub struct AnalyzerConfigBuilder {
    config: AnalyzerConfig,
}

impl AnalyzerConfigBuilder {
    /// Sets the sniffer vantage.
    pub fn sniffer(mut self, sniffer: SnifferLocation) -> Self {
        self.config.sniffer = sniffer;
        self
    }

    /// Sets the small-window threshold in MSS units.
    pub fn small_window_mss(mut self, mss: f64) -> Self {
        self.config.small_window_mss = mss;
        self
    }

    /// Sets the major-group delay-ratio threshold.
    pub fn major_threshold(mut self, threshold: f64) -> Self {
        self.config.major_threshold = threshold;
        self
    }

    /// Sets the consecutive-loss episode threshold.
    pub fn consecutive_loss_threshold(mut self, threshold: usize) -> Self {
        self.config.consecutive_loss_threshold = threshold;
        self
    }

    /// Enables/disables the ACK-shift preprocessing step.
    pub fn disable_ack_shift(mut self, disable: bool) -> Self {
        self.config.disable_ack_shift = disable;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) when a value is
    /// out of range: a zero consecutive-loss threshold, a major
    /// threshold outside `(0, 1]`, or a non-positive small-window
    /// multiple.
    pub fn build(self) -> crate::Result<AnalyzerConfig> {
        let c = &self.config;
        let fail = |reason: String| Err(crate::Error::Config(reason));
        if c.consecutive_loss_threshold == 0 {
            return fail("consecutive_loss_threshold must be at least 1".into());
        }
        if !(c.major_threshold > 0.0 && c.major_threshold <= 1.0) {
            return fail(format!(
                "major_threshold must be in (0, 1], got {}",
                c.major_threshold
            ));
        }
        if c.small_window_mss <= 0.0 || c.small_window_mss.is_nan() {
            return fail(format!(
                "small_window_mss must be positive, got {}",
                c.small_window_mss
            ));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalyzerConfig::default();
        assert_eq!(c.sniffer, SnifferLocation::NearReceiver);
        assert_eq!(c.small_window_mss, 3.0);
        assert_eq!(c.major_threshold, 0.3);
        assert_eq!(c.consecutive_loss_threshold, 8);
    }

    #[test]
    fn builder_defaults_equal_default() {
        assert_eq!(
            AnalyzerConfig::builder().build().unwrap(),
            AnalyzerConfig::default()
        );
    }

    #[test]
    fn builder_sets_every_field() {
        let c = AnalyzerConfig::builder()
            .sniffer(SnifferLocation::NearSender)
            .small_window_mss(2.0)
            .major_threshold(0.5)
            .consecutive_loss_threshold(3)
            .disable_ack_shift(true)
            .build()
            .unwrap();
        assert_eq!(c.sniffer, SnifferLocation::NearSender);
        assert_eq!(c.small_window_mss, 2.0);
        assert_eq!(c.major_threshold, 0.5);
        assert_eq!(c.consecutive_loss_threshold, 3);
        assert!(c.disable_ack_shift);
    }

    #[test]
    fn builder_rejects_invalid_values() {
        assert!(AnalyzerConfig::builder()
            .consecutive_loss_threshold(0)
            .build()
            .is_err());
        assert!(AnalyzerConfig::builder()
            .major_threshold(0.0)
            .build()
            .is_err());
        assert!(AnalyzerConfig::builder()
            .major_threshold(1.5)
            .build()
            .is_err());
        assert!(AnalyzerConfig::builder()
            .small_window_mss(-1.0)
            .build()
            .is_err());
        assert!(AnalyzerConfig::builder()
            .small_window_mss(f64::NAN)
            .build()
            .is_err());
    }
}
