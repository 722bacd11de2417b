//! Vendor and IP-core catalogs: who sells which core type, at what silicon
//! area and license cost.
//!
//! The paper's cost model: buying the license for a `(vendor, type)` pair
//! costs `c(k, t)` dollars **once** — any number of instances of that core
//! can then be placed, each occupying `π(k, t)` area units.

use std::collections::BTreeMap;
use std::fmt;

use troy_dfg::IpTypeId;

/// Most vendors a catalog may hold for synthesis: the solvers keep one
/// bit per vendor in a 64-bit mask, so [`crate::ProblemBuilder::build`]
/// rejects larger catalogs.
pub const MAX_VENDORS: usize = 64;

/// Identifier of an IP vendor (the paper's index `k`).
///
/// # Examples
///
/// ```
/// use troyhls::VendorId;
///
/// let v = VendorId::new(2);
/// assert_eq!(v.index(), 2);
/// assert_eq!(v.to_string(), "Ven3"); // display is 1-based like the paper
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VendorId(u8);

impl VendorId {
    /// Creates a vendor id from a 0-based index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        VendorId(u8::try_from(index).expect("vendor index fits in u8"))
    }

    /// 0-based index.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for VendorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ven{}", self.0 + 1)
    }
}

/// One `(vendor, type)` catalog entry: silicon area per instance and the
/// one-off license cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpOffering {
    /// Area of one instance, in unit cells (the paper's `π(k, t)`).
    pub area: u64,
    /// License cost in dollars (the paper's `c(k, t)`).
    pub cost: u64,
}

/// A license: the right to instantiate `(vendor, ip_type)` cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct License {
    /// Selling vendor.
    pub vendor: VendorId,
    /// Core type covered.
    pub ip_type: IpTypeId,
}

impl fmt::Display for License {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.vendor, self.ip_type)
    }
}

/// The vendor/IP library available to the synthesis flow.
///
/// # Examples
///
/// ```
/// use troy_dfg::IpTypeId;
/// use troyhls::{Catalog, VendorId};
///
/// let cat = Catalog::table1();
/// assert_eq!(cat.num_vendors(), 4);
/// let adder = cat
///     .offering(VendorId::new(0), IpTypeId::ADDER)
///     .expect("Ven1 sells adders");
/// assert_eq!(adder.cost, 450);
/// assert_eq!(adder.area, 532);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Catalog {
    /// Offerings keyed by `(vendor index, type index)`.
    offerings: BTreeMap<(u8, u8), IpOffering>,
    num_vendors: usize,
}

impl Catalog {
    /// An empty catalog; populate with [`Catalog::insert`].
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds (or replaces) the offering for `(vendor, ip_type)`.
    pub fn insert(&mut self, vendor: VendorId, ip_type: IpTypeId, offering: IpOffering) {
        self.num_vendors = self.num_vendors.max(vendor.index() + 1);
        self.offerings
            .insert((vendor.0, ip_type.index() as u8), offering);
    }

    /// Number of vendors (the paper's `|ven|`; indices `0..num_vendors`).
    #[must_use]
    pub fn num_vendors(&self) -> usize {
        self.num_vendors
    }

    /// All vendor ids.
    pub fn vendors(&self) -> impl Iterator<Item = VendorId> + '_ {
        (0..self.num_vendors).map(VendorId::new)
    }

    /// The offering of `vendor` for `ip_type`, if it sells one.
    #[must_use]
    pub fn offering(&self, vendor: VendorId, ip_type: IpTypeId) -> Option<IpOffering> {
        self.offerings
            .get(&(vendor.0, ip_type.index() as u8))
            .copied()
    }

    /// Offering looked up by license.
    #[must_use]
    pub fn offering_of(&self, license: License) -> Option<IpOffering> {
        self.offering(license.vendor, license.ip_type)
    }

    /// Vendors that sell `ip_type`, in index order.
    pub fn vendors_for(&self, ip_type: IpTypeId) -> impl Iterator<Item = VendorId> + '_ {
        let t = ip_type.index() as u8;
        self.offerings
            .keys()
            .filter(move |(_, ty)| *ty == t)
            .map(|&(v, _)| VendorId(v))
    }

    /// Every license on sale, cheapest first.
    #[must_use]
    pub fn licenses_by_cost(&self) -> Vec<(License, IpOffering)> {
        let mut v: Vec<(License, IpOffering)> = self
            .offerings
            .iter()
            .map(|(&(ven, ty), &off)| {
                (
                    License {
                        vendor: VendorId(ven),
                        ip_type: IpTypeId::new(usize::from(ty)),
                    },
                    off,
                )
            })
            .collect();
        v.sort_by_key(|(l, off)| (off.cost, l.vendor, l.ip_type));
        v
    }

    /// Total license cost of a set of licenses.
    ///
    /// # Panics
    ///
    /// Panics if a license is not offered by this catalog.
    #[must_use]
    pub fn cost_of(&self, licenses: impl IntoIterator<Item = License>) -> u64 {
        licenses
            .into_iter()
            .map(|l| {
                self.offering_of(l)
                    .unwrap_or_else(|| panic!("license {l} not in catalog"))
                    .cost
            })
            .sum()
    }

    /// The paper's Table 1: four vendors, adders and multipliers.
    #[must_use]
    pub fn table1() -> Self {
        let rows: [(usize, u64, u64, u64, u64); 4] = [
            // vendor, adder area, adder cost, mult area, mult cost
            (0, 532, 450, 6843, 950),
            (1, 640, 630, 5731, 880),
            (2, 763, 540, 6325, 760),
            (3, 618, 580, 5937, 1000),
        ];
        let mut cat = Catalog::new();
        for (v, a_area, a_cost, m_area, m_cost) in rows {
            let ven = VendorId::new(v);
            cat.insert(
                ven,
                IpTypeId::ADDER,
                IpOffering {
                    area: a_area,
                    cost: a_cost,
                },
            );
            cat.insert(
                ven,
                IpTypeId::MULTIPLIER,
                IpOffering {
                    area: m_area,
                    cost: m_cost,
                },
            );
        }
        cat
    }

    /// A randomly generated catalog with `num_vendors` vendors covering
    /// all three core types, with areas/costs drawn from the same bands as
    /// [`Catalog::table1`]. Deterministic per seed — used by stress tests
    /// and design-space experiments beyond the paper's two libraries.
    ///
    /// # Panics
    ///
    /// Panics if `num_vendors` is 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use troyhls::Catalog;
    ///
    /// let a = Catalog::random(5, 42);
    /// assert_eq!(a.num_vendors(), 5);
    /// assert_eq!(a, Catalog::random(5, 42));
    /// assert_ne!(a, Catalog::random(5, 43));
    /// ```
    #[must_use]
    pub fn random(num_vendors: usize, seed: u64) -> Self {
        assert!(num_vendors > 0, "need at least one vendor");
        let mut state = seed;
        let mut next = move |span: u64| -> u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % span
        };
        let mut cat = Catalog::new();
        for v in 0..num_vendors {
            let ven = VendorId::new(v);
            cat.insert(
                ven,
                IpTypeId::ADDER,
                IpOffering {
                    area: 500 + next(300),
                    cost: 450 + next(250),
                },
            );
            cat.insert(
                ven,
                IpTypeId::MULTIPLIER,
                IpOffering {
                    area: 5700 + next(1200),
                    cost: 760 + next(240),
                },
            );
            cat.insert(
                ven,
                IpTypeId::OTHER,
                IpOffering {
                    area: 1100 + next(350),
                    cost: 480 + next(180),
                },
            );
        }
        cat
    }

    /// The experiment catalog: 8 vendors × 3 core types.
    ///
    /// The paper uses this shape but omits the actual numbers for space
    /// ("very similar to the lists shown in Table 1"); this reconstruction
    /// extends Table 1's price/area bands — adders $450–$700 at 500–800
    /// cells, multipliers $760–$1000 at 5700–6900 cells, and "other"
    /// operators (comparators/logic) in between.
    #[must_use]
    pub fn paper8() -> Self {
        let rows: [(u64, u64, u64, u64, u64, u64); 8] = [
            // adder(area,cost), multiplier(area,cost), other(area,cost)
            (532, 450, 6843, 950, 1210, 520),
            (640, 630, 5731, 880, 1345, 610),
            (763, 540, 6325, 760, 1188, 480),
            (618, 580, 5937, 1000, 1422, 650),
            (574, 470, 6190, 820, 1265, 540),
            (701, 660, 6540, 910, 1150, 500),
            (689, 510, 5810, 840, 1398, 590),
            (556, 700, 6075, 980, 1240, 560),
        ];
        let mut cat = Catalog::new();
        for (v, (aa, ac, ma, mc, oa, oc)) in rows.into_iter().enumerate() {
            let ven = VendorId::new(v);
            cat.insert(ven, IpTypeId::ADDER, IpOffering { area: aa, cost: ac });
            cat.insert(ven, IpTypeId::MULTIPLIER, IpOffering { area: ma, cost: mc });
            cat.insert(ven, IpTypeId::OTHER, IpOffering { area: oa, cost: oc });
        }
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let cat = Catalog::table1();
        assert_eq!(cat.num_vendors(), 4);
        let checks = [
            (0, IpTypeId::ADDER, 532, 450),
            (0, IpTypeId::MULTIPLIER, 6843, 950),
            (1, IpTypeId::ADDER, 640, 630),
            (1, IpTypeId::MULTIPLIER, 5731, 880),
            (2, IpTypeId::ADDER, 763, 540),
            (2, IpTypeId::MULTIPLIER, 6325, 760),
            (3, IpTypeId::ADDER, 618, 580),
            (3, IpTypeId::MULTIPLIER, 5937, 1000),
        ];
        for (v, t, area, cost) in checks {
            let off = cat.offering(VendorId::new(v), t).unwrap();
            assert_eq!(off.area, area);
            assert_eq!(off.cost, cost);
        }
        assert!(cat.offering(VendorId::new(0), IpTypeId::OTHER).is_none());
    }

    #[test]
    fn table1_cheapest_three_per_type_sum_to_4160_components() {
        // The Fig. 5 optimum buys the 3 cheapest multiplier licenses
        // (760+880+950) and the 3 cheapest adder licenses (450+540+580).
        let cat = Catalog::table1();
        let mut mult_costs: Vec<u64> = cat
            .vendors_for(IpTypeId::MULTIPLIER)
            .map(|v| cat.offering(v, IpTypeId::MULTIPLIER).unwrap().cost)
            .collect();
        mult_costs.sort_unstable();
        let mut add_costs: Vec<u64> = cat
            .vendors_for(IpTypeId::ADDER)
            .map(|v| cat.offering(v, IpTypeId::ADDER).unwrap().cost)
            .collect();
        add_costs.sort_unstable();
        let total: u64 = mult_costs[..3].iter().sum::<u64>() + add_costs[..3].iter().sum::<u64>();
        assert_eq!(total, 4160);
    }

    #[test]
    fn paper8_has_all_24_offerings() {
        let cat = Catalog::paper8();
        assert_eq!(cat.num_vendors(), 8);
        for v in cat.vendors() {
            for t in IpTypeId::all() {
                let off = cat.offering(v, t).unwrap();
                assert!(off.area > 0 && off.cost > 0);
            }
        }
        assert_eq!(cat.licenses_by_cost().len(), 24);
    }

    #[test]
    fn paper8_stays_in_table1_bands() {
        let cat = Catalog::paper8();
        for v in cat.vendors() {
            let adder = cat.offering(v, IpTypeId::ADDER).unwrap();
            assert!((450..=700).contains(&adder.cost), "{v} adder cost");
            assert!((500..=800).contains(&adder.area), "{v} adder area");
            let mult = cat.offering(v, IpTypeId::MULTIPLIER).unwrap();
            assert!((760..=1000).contains(&mult.cost), "{v} mult cost");
            assert!((5700..=6900).contains(&mult.area), "{v} mult area");
        }
    }

    #[test]
    fn random_catalogs_stay_in_band_and_are_seeded() {
        for seed in 0..10 {
            let cat = Catalog::random(6, seed);
            assert_eq!(cat.num_vendors(), 6);
            for v in cat.vendors() {
                let adder = cat.offering(v, IpTypeId::ADDER).unwrap();
                assert!((450..=700).contains(&adder.cost));
                let mult = cat.offering(v, IpTypeId::MULTIPLIER).unwrap();
                assert!((760..=1000).contains(&mult.cost));
                assert!(mult.area > adder.area);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one vendor")]
    fn random_catalog_zero_vendors_panics() {
        let _ = Catalog::random(0, 1);
    }

    #[test]
    fn licenses_by_cost_is_sorted() {
        let cat = Catalog::paper8();
        let ls = cat.licenses_by_cost();
        for pair in ls.windows(2) {
            assert!(pair[0].1.cost <= pair[1].1.cost);
        }
    }

    #[test]
    fn cost_of_sums_license_fees() {
        let cat = Catalog::table1();
        let licenses = [
            License {
                vendor: VendorId::new(0),
                ip_type: IpTypeId::ADDER,
            },
            License {
                vendor: VendorId::new(2),
                ip_type: IpTypeId::MULTIPLIER,
            },
        ];
        assert_eq!(cat.cost_of(licenses), 450 + 760);
    }

    #[test]
    #[should_panic(expected = "not in catalog")]
    fn cost_of_unknown_license_panics() {
        let cat = Catalog::table1();
        let ghost = License {
            vendor: VendorId::new(0),
            ip_type: IpTypeId::OTHER,
        };
        let _ = cat.cost_of([ghost]);
    }

    #[test]
    fn vendors_for_filters_by_type() {
        let mut cat = Catalog::new();
        cat.insert(
            VendorId::new(0),
            IpTypeId::ADDER,
            IpOffering { area: 1, cost: 1 },
        );
        cat.insert(
            VendorId::new(3),
            IpTypeId::MULTIPLIER,
            IpOffering { area: 1, cost: 1 },
        );
        let adders: Vec<_> = cat.vendors_for(IpTypeId::ADDER).collect();
        assert_eq!(adders, vec![VendorId::new(0)]);
        // num_vendors tracks the largest index even with gaps.
        assert_eq!(cat.num_vendors(), 4);
    }

    #[test]
    fn display_formats() {
        let l = License {
            vendor: VendorId::new(1),
            ip_type: IpTypeId::MULTIPLIER,
        };
        assert_eq!(l.to_string(), "Ven2/multiplier");
    }
}
