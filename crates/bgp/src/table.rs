//! Synthetic BGP routing-table generation.
//!
//! The paper's table transfers move a *full BGP table* of 5–8 MB (§II-B).
//! This module generates deterministic synthetic tables with realistic
//! statistics — prefix-length distribution dominated by /24s, AS-path
//! lengths of 2–6 hops, heavy attribute sharing — and packs them into
//! UPDATE messages the way routers do: one update per attribute set,
//! filled with as many NLRI as fit under the 4096-byte message limit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

use crate::attrs::{AsPath, Origin, PathAttribute};
use crate::message::{BgpMessage, UpdateMessage, BGP_HEADER_LEN, BGP_MAX_MESSAGE_LEN};
use crate::prefix::Prefix;

/// The NEXT_HOP carried in every generated attribute set.
const NEXT_HOP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// One route: a prefix and the attributes it is announced with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Index into the owning table's attribute sets.
    pub attr_set: usize,
}

/// A synthetic routing table: shared attribute sets plus routes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutingTable {
    /// Distinct attribute combinations, shared across routes.
    pub attr_sets: Vec<Vec<PathAttribute>>,
    /// The routes, in announcement order.
    pub routes: Vec<Route>,
}

impl RoutingTable {
    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Packs the table into UPDATE messages.
    ///
    /// Routes sharing an attribute set are grouped (preserving table
    /// order within the group) and split so no message exceeds
    /// [`BGP_MAX_MESSAGE_LEN`]. This mirrors router behaviour and the
    /// update packing observed in collector archives.
    pub fn to_updates(&self) -> Vec<UpdateMessage> {
        let mut by_set: Vec<Vec<Prefix>> = vec![Vec::new(); self.attr_sets.len()];
        for route in &self.routes {
            by_set[route.attr_set].push(route.prefix);
        }
        let mut updates = Vec::new();
        for (set_idx, prefixes) in by_set.into_iter().enumerate() {
            if prefixes.is_empty() {
                continue;
            }
            let attrs = &self.attr_sets[set_idx];
            let attrs_len: usize = attrs.iter().map(PathAttribute::wire_len).sum();
            let fixed = BGP_HEADER_LEN + 2 + 2 + attrs_len;
            let mut current = UpdateMessage::announce(attrs.clone(), Vec::new());
            let mut current_len = fixed;
            for prefix in prefixes {
                if current_len + prefix.wire_len() > BGP_MAX_MESSAGE_LEN {
                    updates.push(std::mem::replace(
                        &mut current,
                        UpdateMessage::announce(attrs.clone(), Vec::new()),
                    ));
                    current_len = fixed;
                }
                current_len += prefix.wire_len();
                current.announced.push(prefix);
            }
            if !current.announced.is_empty() {
                updates.push(current);
            }
        }
        updates
    }

    /// Serializes the packed updates to a contiguous byte stream — the
    /// exact bytes a sender-side BGP process queues on its TCP socket
    /// for a table transfer.
    pub fn to_update_stream(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for update in self.to_updates() {
            BgpMessage::Update(update).encode(&mut out);
        }
        out
    }
}

/// Deterministic generator for synthetic routing tables.
///
/// # Examples
///
/// ```
/// use tdat_bgp::TableGenerator;
///
/// let table = TableGenerator::new(42).routes(1000).generate();
/// assert_eq!(table.len(), 1000);
/// let updates = table.to_updates();
/// assert!(!updates.is_empty());
/// // Deterministic: same seed, same table.
/// assert_eq!(table, TableGenerator::new(42).routes(1000).generate());
/// ```
#[derive(Debug, Clone)]
pub struct TableGenerator {
    seed: u64,
    routes: usize,
    attr_sets: Option<usize>,
    local_as: u16,
}

impl TableGenerator {
    /// Creates a generator with the given seed and defaults: 10 000
    /// routes and one attribute set per three routes (matching the
    /// attribute diversity of real tables, which yields the paper's
    /// ~20 bytes/route transfer size).
    pub fn new(seed: u64) -> TableGenerator {
        TableGenerator {
            seed,
            routes: 10_000,
            attr_sets: None,
            local_as: 65_000,
        }
    }

    /// Sets the number of routes.
    pub fn routes(mut self, routes: usize) -> TableGenerator {
        self.routes = routes;
        self
    }

    /// Sets the number of distinct attribute sets (clamped to at least 1
    /// and at most the route count when generating). The default is one
    /// set per three routes.
    pub fn attr_sets(mut self, attr_sets: usize) -> TableGenerator {
        self.attr_sets = Some(attr_sets);
        self
    }

    /// Sets the first AS on every path (the announcing neighbor).
    pub fn local_as(mut self, local_as: u16) -> TableGenerator {
        self.local_as = local_as;
        self
    }

    /// Generates the table.
    pub fn generate(&self) -> RoutingTable {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_sets = self
            .attr_sets
            .unwrap_or(self.routes / 3)
            .clamp(1, self.routes.max(1));
        let attr_sets: Vec<Vec<PathAttribute>> =
            (0..n_sets).map(|_| self.gen_attr_set(&mut rng)).collect();
        let mut seen = std::collections::HashSet::with_capacity(self.routes);
        let mut routes = Vec::with_capacity(self.routes);
        while routes.len() < self.routes {
            let prefix = gen_prefix(&mut rng);
            if !seen.insert(prefix) {
                continue;
            }
            // Zipf-ish skew: a minority of attribute sets carry most
            // routes, as in real tables.
            let attr_set = (rng.gen::<f64>().powi(2) * n_sets as f64) as usize % n_sets;
            routes.push(Route { prefix, attr_set });
        }
        RoutingTable { attr_sets, routes }
    }

    fn gen_attr_set(&self, rng: &mut StdRng) -> Vec<PathAttribute> {
        // Path length 1..=5 beyond the local AS, geometric-ish.
        let extra = 1 + (rng.gen::<f64>() * rng.gen::<f64>() * 5.0) as usize;
        let mut ases = Vec::with_capacity(extra + 1);
        ases.push(self.local_as);
        for _ in 0..extra {
            ases.push(rng.gen_range(1..64_000));
        }
        let mut attrs = vec![
            PathAttribute::Origin(match rng.gen_range(0..10) {
                0 => Origin::Incomplete,
                1 => Origin::Egp,
                _ => Origin::Igp,
            }),
            PathAttribute::AsPath(AsPath::sequence(ases)),
            PathAttribute::NextHop(NEXT_HOP),
        ];
        if rng.gen_bool(0.3) {
            attrs.push(PathAttribute::Med(rng.gen_range(0..1000)));
        }
        if rng.gen_bool(0.2) {
            let communities = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(1u32..0xffff_0000))
                .collect();
            attrs.push(PathAttribute::Communities(communities));
        }
        attrs
    }
}

/// Draws a prefix with a realistic length distribution (roughly matching
/// global-table statistics: ~55% /24, then /22–/23, /16s, etc.).
fn gen_prefix(rng: &mut StdRng) -> Prefix {
    let len: u8 = match rng.gen_range(0..100) {
        0..=54 => 24,
        55..=67 => 22,
        68..=77 => 23,
        78..=85 => 21,
        86..=91 => 20,
        92..=95 => 19,
        96..=97 => 16,
        98 => 18,
        _ => 17,
    };
    // Stay inside 1.0.0.0 – 223.255.255.255 (unicast-ish space).
    let addr = Ipv4Addr::from(rng.gen_range(0x0100_0000u32..0xE000_0000u32));
    Prefix::new(addr, len).expect("length is at most 24")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_unique() {
        let a = TableGenerator::new(7).routes(500).generate();
        let b = TableGenerator::new(7).routes(500).generate();
        assert_eq!(a, b);
        let c = TableGenerator::new(8).routes(500).generate();
        assert_ne!(a, c);
        let mut prefixes: Vec<Prefix> = a.routes.iter().map(|r| r.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 500, "prefixes must be unique");
    }

    #[test]
    fn updates_respect_message_limit_and_cover_table() {
        let table = TableGenerator::new(1).routes(5000).attr_sets(50).generate();
        let updates = table.to_updates();
        let mut announced = 0;
        for u in &updates {
            let len = u.wire_len();
            assert!(len <= BGP_MAX_MESSAGE_LEN, "update of {len} bytes");
            assert!(!u.announced.is_empty());
            announced += u.announced.len();
        }
        assert_eq!(announced, 5000);
        // Attribute sharing means far fewer updates than routes.
        assert!(updates.len() < 500, "{} updates", updates.len());
    }

    #[test]
    fn update_stream_decodes_back() {
        use crate::message::BgpMessage;
        let table = TableGenerator::new(3).routes(800).attr_sets(20).generate();
        let stream = table.to_update_stream();
        let mut rest = &stream[..];
        let mut announced = 0;
        while let Some(msg) = BgpMessage::decode(&mut rest).unwrap() {
            match msg {
                BgpMessage::Update(u) => announced += u.announced.len(),
                other => panic!("unexpected message {other}"),
            }
        }
        assert_eq!(announced, 800);
    }

    #[test]
    fn full_table_size_matches_paper_ballpark() {
        // The paper quotes 5–8 MB for a full table of ~300k routes in
        // 2008–2011. Our encoding should land in the same bytes/route
        // regime (~20 B/route): check on a 20k-route sample.
        let table = TableGenerator::new(5).routes(20_000).generate();
        let bytes = table.to_update_stream().len();
        let per_route = bytes as f64 / 20_000.0;
        assert!((15.0..40.0).contains(&per_route), "{per_route} bytes/route");
    }

    #[test]
    fn prefix_length_distribution_dominated_by_slash24() {
        let table = TableGenerator::new(9).routes(4000).generate();
        let s24 = table.routes.iter().filter(|r| r.prefix.len() == 24).count();
        let frac = s24 as f64 / 4000.0;
        assert!((0.45..0.65).contains(&frac), "/24 fraction {frac}");
    }
}
