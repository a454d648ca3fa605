//! Per-morsel attribute gathers: the positional join's inner loop.
//!
//! A positional join fetches attribute `attr` of tuple `oid` for every
//! result row.  [`Gather`] hands the fetch a whole morsel of oids at once,
//! so a columnar source resolves `attr` to its value array once per morsel
//! and then runs a plain indexed copy, and a type-erased source
//! (`Box<dyn Gather>`) costs one virtual call per morsel instead of one per
//! value.

use rdx_dsm::{DsmRelation, Oid};
use std::sync::Arc;

/// A positional-join source: [`Gather::gather`] fills `out[i]` with
/// attribute `attr` of tuple `oids[i]`.
///
/// Implementations index with bounds checks, so an out-of-range `attr` or
/// oid panics; it never reads outside the source's columns.
pub trait Gather: Sync {
    /// Fills `out` with attribute `attr` of the tuples `oids` (equal
    /// lengths).
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]);
}

/// The DSM gather: one column lookup per morsel, then
/// `out[i] = column[oids[i]]`.
impl Gather for DsmRelation {
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        debug_assert_eq!(oids.len(), out.len());
        let column = self.attr(attr).as_slice();
        for (slot, &oid) in out.iter_mut().zip(oids) {
            *slot = column[oid as usize];
        }
    }
}

impl<G: Gather + ?Sized> Gather for &G {
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather(attr, oids, out)
    }
}

impl<G: Gather + ?Sized> Gather for Box<G> {
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather(attr, oids, out)
    }
}

impl<G: Gather + Send + ?Sized> Gather for Arc<G> {
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        (**self).gather(attr, oids, out)
    }
}

/// Adapts a per-value fetch `(oid, attr) → value` to a [`Gather`], for
/// sources without a contiguous array per attribute (NSM records).
pub struct PerValue<F>(pub F);

impl<F: Fn(Oid, usize) -> i32 + Sync> Gather for PerValue<F> {
    fn gather(&self, attr: usize, oids: &[Oid], out: &mut [i32]) {
        debug_assert_eq!(oids.len(), out.len());
        for (slot, &oid) in out.iter_mut().zip(oids) {
            *slot = (self.0)(oid, attr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ExecPolicy;
    use crate::strategy::par_project_columns;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use rdx_dsm::Column;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const MORSEL: usize = 64;
    const CARDINALITY: usize = 1_000;
    const ATTRS: usize = 3;

    fn relation(rng: &mut StdRng) -> DsmRelation {
        let attrs = (0..ATTRS)
            .map(|_| Column::from_vec((0..CARDINALITY).map(|_| rng.next_u32() as i32).collect()))
            .collect();
        DsmRelation::new(Column::from_vec((0..CARDINALITY as u64).collect()), attrs)
    }

    /// The DSM slice gather — direct, boxed, and morsel-parallel on 1-3
    /// threads — equals the per-value fetch it replaced, for random oids
    /// and for lengths on both sides of the morsel boundary.
    #[test]
    fn dsm_gather_equals_the_per_value_fetch() {
        let mut rng = StdRng::seed_from_u64(12);
        let rel = relation(&mut rng);
        let fetch = |oid: Oid, a: usize| rel.attr(a).value(oid as usize);
        for len in [0, 1, MORSEL - 1, MORSEL, MORSEL + 1, 5 * MORSEL + 17] {
            let oids: Vec<Oid> = (0..len)
                .map(|_| rng.gen_range(0..CARDINALITY as u64) as Oid)
                .collect();
            let expected: Vec<Vec<i32>> = (0..ATTRS)
                .map(|a| oids.iter().map(|&oid| fetch(oid, a)).collect())
                .collect();
            for threads in 1..=3 {
                let policy = ExecPolicy::with_threads(threads).morsel_tuples(MORSEL);
                let boxed: Box<dyn Gather + '_> = Box::new(&rel);
                for (label, got) in [
                    ("dsm", par_project_columns(&oids, ATTRS, &rel, &policy)),
                    ("boxed", par_project_columns(&oids, ATTRS, boxed, &policy)),
                    (
                        "per-value",
                        par_project_columns(&oids, ATTRS, PerValue(fetch), &policy),
                    ),
                ] {
                    assert_eq!(got, expected, "{label}: len {len}, threads {threads}");
                }
            }
        }
    }

    /// An out-of-range oid panics — on the bounds check, never by reading
    /// past the column — from any morsel, on any thread count.
    #[test]
    fn out_of_range_oid_panics() {
        let rel = relation(&mut StdRng::seed_from_u64(3));
        for bad in [CARDINALITY as Oid, Oid::MAX] {
            let direct = catch_unwind(AssertUnwindSafe(|| rel.gather(0, &[bad], &mut [0])));
            assert!(direct.is_err(), "oid {bad}: direct gather");
            let mut oids: Vec<Oid> = (0..3 * MORSEL as Oid).collect();
            oids[2 * MORSEL + 5] = bad;
            for threads in 1..=3 {
                let policy = ExecPolicy::with_threads(threads).morsel_tuples(MORSEL);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    par_project_columns(&oids, ATTRS, &rel, &policy)
                }));
                assert!(run.is_err(), "oid {bad}: threads {threads}");
            }
        }
    }
}
