//! The served kernel catalogue.
//!
//! Each serve request names one of the five paper kernels plus its
//! structural parameters and a batch of items. This module turns the
//! parsed JSON into a typed [`KernelRequest`] — one [`Batch`] of a
//! kernel descriptor and its items — and executes it through a
//! [`ReplayOrRecord`] driver under the descriptor's
//! [shape key](Kernel#shape-keys), the key the compiled-tape cache is
//! keyed on.

use scorpio_core::{
    AnalysisArena, AnalysisError, Ctx, LaneScratch, OutputDetail, ReplayOrRecord, Report,
    VarSignificances, DEFAULT_LANES,
};
use scorpio_kernels::blackscholes::{Option_, Pricing};
use scorpio_kernels::dct::{Pipeline, BLOCK};
use scorpio_kernels::fisheye::{InverseMapping, Lens};
use scorpio_kernels::maclaurin::Series;
use scorpio_kernels::nbody::{Pair, PairForce};
use scorpio_kernels::Kernel;
use scorpio_obs::json::Value;

/// Names of the served kernels, in catalogue order (the order stats
/// responses and per-kernel counters use).
pub const KERNEL_NAMES: [&str; 5] = ["fisheye", "blackscholes", "dct", "maclaurin", "nbody"];

/// Most items one analyze request may carry: 64× a typical 64-item
/// batch and above a whole 64×48 fisheye grid. Larger batches get an
/// `ok:false` reply instead of tying a worker up for minutes.
pub const MAX_ITEMS: usize = 4096;

/// Catalogue index of `name`, if it names a served kernel.
pub fn kernel_index(name: &str) -> Option<usize> {
    KERNEL_NAMES.iter().position(|&k| k == name)
}

/// One kernel descriptor and the items to analyse with it.
#[derive(Debug, Clone)]
pub struct Batch<K: Kernel> {
    /// The descriptor, holding the request's structural parameters.
    pub kernel: K,
    /// The items, in request order.
    pub items: Vec<K::Item>,
}

impl<K: Kernel> Batch<K> {
    /// Runs the batch at detail `D` under the descriptor's shape key,
    /// chunking items at [`DEFAULT_LANES`] granularity so full blocks
    /// take one walk of the compiled op stream.
    fn run<D: OutputDetail>(
        &self,
        driver: &mut ReplayOrRecord,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<DEFAULT_LANES>,
    ) -> Result<Vec<D>, AnalysisError> {
        let key = Some(self.kernel.shape_key());
        let inputs_of = |item: &K::Item| self.kernel.inputs(item);
        let register = |ctx: &Ctx<'_>, item: &K::Item| self.kernel.register(ctx, item);
        let mut out = Vec::with_capacity(self.items.len());
        for block in self.items.chunks(DEFAULT_LANES) {
            driver.run_block(key, arena, lanes, block, &inputs_of, &register, &mut out)?;
        }
        Ok(out)
    }

    /// One fresh recording per item.
    fn direct_reports(&self) -> Result<Vec<Report>, AnalysisError> {
        self.items
            .iter()
            .map(|item| self.kernel.report(item))
            .collect()
    }
}

/// One parsed analyze request: the kernel, its structural parameters
/// and the item batch.
#[derive(Debug, Clone)]
pub enum KernelRequest {
    /// Fisheye InverseMapping `(u, v)` pixels; the lens is fitted to
    /// the request's `width × height` image.
    Fisheye(Batch<InverseMapping>),
    /// Black–Scholes options (the `call` flag defaults to `true`; the
    /// analysis traces the call-branch block structure either way).
    Blackscholes(Batch<Pricing>),
    /// Row-major 8×8 DCT blocks under the request's pixel radius.
    Dct(Batch<Pipeline>),
    /// Maclaurin expansion points `x₀` of an `n`-term series (§3).
    Maclaurin(Batch<Series>),
    /// Lennard-Jones pair force at `(r0, radius)` separations.
    Nbody(Batch<PairForce>),
}

/// Reads a required finite number field.
fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("missing or non-numeric field \"{key}\""))
}

/// Reads an optional number field, defaulting to `default`.
fn num_field_or(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("non-numeric field \"{key}\"")),
    }
}

/// Reads a required non-negative integer field.
fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    let x = num_field(v, key)?;
    if x < 0.0 || x.fract() != 0.0 || x > u32::MAX as f64 {
        return Err(format!(
            "field \"{key}\" must be a small non-negative integer"
        ));
    }
    Ok(x as usize)
}

impl KernelRequest {
    /// Parses the kernel-specific part of an analyze request (the
    /// `kernel` field plus its parameters and `items`).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field; the server
    /// echoes it verbatim in the error reply.
    pub fn from_value(v: &Value) -> Result<KernelRequest, String> {
        let kernel = v
            .get("kernel")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"kernel\" field".to_string())?;
        let items = v
            .get("items")
            .and_then(Value::as_arr)
            .ok_or_else(|| "missing \"items\" array".to_string())?;
        if items.is_empty() {
            return Err("\"items\" must not be empty".to_string());
        }
        if items.len() > MAX_ITEMS {
            return Err(format!(
                "\"items\" holds {} items, more than the {MAX_ITEMS} one request may carry",
                items.len()
            ));
        }
        match kernel {
            "fisheye" => {
                let width = usize_field(v, "width")?;
                let height = usize_field(v, "height")?;
                if width == 0 || height == 0 {
                    return Err("fisheye image must be non-empty".to_string());
                }
                Ok(KernelRequest::Fisheye(Batch {
                    kernel: InverseMapping {
                        lens: Lens::for_image(width, height),
                    },
                    items: items
                        .iter()
                        .map(|it| Ok((num_field(it, "u")?, num_field(it, "v")?)))
                        .collect::<Result<_, String>>()?,
                }))
            }
            "blackscholes" => Ok(KernelRequest::Blackscholes(Batch {
                kernel: Pricing,
                items: items
                    .iter()
                    .map(|it| {
                        Ok(Option_ {
                            spot: num_field(it, "spot")?,
                            strike: num_field(it, "strike")?,
                            rate: num_field(it, "rate")?,
                            volatility: num_field(it, "volatility")?,
                            time: num_field(it, "time")?,
                            call: true,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            })),
            "dct" => {
                let radius = num_field_or(v, "radius", 1.0)?;
                let kernel = Pipeline::new(radius).map_err(|e| e.to_string())?;
                let items = items
                    .iter()
                    .map(|it| {
                        let pixels = it
                            .as_arr()
                            .filter(|a| a.len() == BLOCK * BLOCK)
                            .ok_or_else(|| {
                                format!(
                                    "each dct item must be an array of {} pixels",
                                    BLOCK * BLOCK
                                )
                            })?;
                        let mut block = [[0.0; BLOCK]; BLOCK];
                        for (i, p) in pixels.iter().enumerate() {
                            block[i / BLOCK][i % BLOCK] = p
                                .as_f64()
                                .filter(|x| x.is_finite())
                                .ok_or_else(|| "non-numeric dct pixel".to_string())?;
                        }
                        Ok(block)
                    })
                    .collect::<Result<_, String>>()?;
                Ok(KernelRequest::Dct(Batch { kernel, items }))
            }
            "maclaurin" => {
                let n = usize_field(v, "n")?;
                if n == 0 || n > 4096 {
                    return Err("maclaurin \"n\" must be in 1..=4096".to_string());
                }
                Ok(KernelRequest::Maclaurin(Batch {
                    kernel: Series { n },
                    items: items
                        .iter()
                        .map(|it| {
                            it.as_f64().filter(|x| x.is_finite()).ok_or_else(|| {
                                "each maclaurin item must be a number x0".to_string()
                            })
                        })
                        .collect::<Result<_, String>>()?,
                }))
            }
            "nbody" => Ok(KernelRequest::Nbody(Batch {
                kernel: PairForce,
                items: items
                    .iter()
                    .map(|it| {
                        Pair::new(num_field(it, "r0")?, num_field(it, "radius")?)
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<_, String>>()?,
            })),
            other => Err(format!("unknown kernel \"{other}\"")),
        }
    }

    /// The kernel's catalogue name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelRequest::Fisheye(_) => "fisheye",
            KernelRequest::Blackscholes(_) => "blackscholes",
            KernelRequest::Dct(_) => "dct",
            KernelRequest::Maclaurin(_) => "maclaurin",
            KernelRequest::Nbody(_) => "nbody",
        }
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        match self {
            KernelRequest::Fisheye(b) => b.items.len(),
            KernelRequest::Blackscholes(b) => b.items.len(),
            KernelRequest::Dct(b) => b.items.len(),
            KernelRequest::Maclaurin(b) => b.items.len(),
            KernelRequest::Nbody(b) => b.items.len(),
        }
    }

    /// `true` when the batch has no items (rejected at parse time, so
    /// never observed on the execution path).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache shape key: the descriptor's [`Kernel::shape_key`].
    pub fn shape_key(&self) -> u64 {
        match self {
            KernelRequest::Fisheye(b) => b.kernel.shape_key(),
            KernelRequest::Blackscholes(b) => b.kernel.shape_key(),
            KernelRequest::Dct(b) => b.kernel.shape_key(),
            KernelRequest::Maclaurin(b) => b.kernel.shape_key(),
            KernelRequest::Nbody(b) => b.kernel.shape_key(),
        }
    }

    /// Runs the batch in variables-only detail (skips the significance
    /// graph; the serve default).
    ///
    /// # Errors
    ///
    /// Propagates the first failing item's [`AnalysisError`].
    pub fn run_vars(
        &self,
        driver: &mut ReplayOrRecord,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<DEFAULT_LANES>,
    ) -> Result<Vec<VarSignificances>, AnalysisError> {
        self.run(driver, arena, lanes)
    }

    /// Runs the batch in full detail (complete [`Report`]s including
    /// the node-level significance graph).
    ///
    /// # Errors
    ///
    /// Propagates the first failing item's [`AnalysisError`].
    pub fn run_full(
        &self,
        driver: &mut ReplayOrRecord,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<DEFAULT_LANES>,
    ) -> Result<Vec<Report>, AnalysisError> {
        self.run(driver, arena, lanes)
    }

    /// [`Batch::run`] of the request's batch.
    fn run<D: OutputDetail>(
        &self,
        driver: &mut ReplayOrRecord,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<DEFAULT_LANES>,
    ) -> Result<Vec<D>, AnalysisError> {
        match self {
            KernelRequest::Fisheye(b) => b.run(driver, arena, lanes),
            KernelRequest::Blackscholes(b) => b.run(driver, arena, lanes),
            KernelRequest::Dct(b) => b.run(driver, arena, lanes),
            KernelRequest::Maclaurin(b) => b.run(driver, arena, lanes),
            KernelRequest::Nbody(b) => b.run(driver, arena, lanes),
        }
    }

    /// Runs the batch as direct, replay-free library calls — one fresh
    /// [`Kernel::report`] recording per item, exactly what a caller
    /// linking the library would compute. The round-trip test compares
    /// served reports against these bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first failing item's [`AnalysisError`].
    pub fn direct_reports(&self) -> Result<Vec<Report>, AnalysisError> {
        match self {
            KernelRequest::Fisheye(b) => b.direct_reports(),
            KernelRequest::Blackscholes(b) => b.direct_reports(),
            KernelRequest::Dct(b) => b.direct_reports(),
            KernelRequest::Maclaurin(b) => b.direct_reports(),
            KernelRequest::Nbody(b) => b.direct_reports(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_core::Analysis;
    use scorpio_obs::json::parse;

    #[test]
    fn parse_rejects_bad_requests() {
        let cases = [
            (r#"{"cmd":"analyze"}"#, "kernel"),
            (r#"{"kernel":"warp","items":[1]}"#, "unknown kernel"),
            (r#"{"kernel":"maclaurin","n":4,"items":[]}"#, "empty"),
            (r#"{"kernel":"maclaurin","items":[0.5]}"#, "\"n\""),
            (r#"{"kernel":"maclaurin","n":4,"items":["x"]}"#, "number"),
            (r#"{"kernel":"fisheye","width":0,"height":8,"items":[{"u":1,"v":1}]}"#, "non-empty"),
            (r#"{"kernel":"dct","items":[[1,2,3]]}"#, "64"),
            (r#"{"kernel":"nbody","items":[{"r0":1.2,"radius":-0.03}]}"#, "\"radius\""),
            (r#"{"kernel":"dct","radius":-3,"items":[[1,2,3]]}"#, "\"radius\""),
        ];
        for (line, needle) in cases {
            let v = parse(line).unwrap();
            let err = KernelRequest::from_value(&v).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn replayed_batch_is_bit_identical_to_direct_calls() {
        let req = KernelRequest::Maclaurin(Batch {
            kernel: Series { n: 8 },
            items: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        });
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let full = req
            .run_full(&mut driver, &mut arena, &mut LaneScratch::new())
            .unwrap();
        let direct = req.direct_reports().unwrap();
        assert_eq!(full.len(), direct.len());
        for (a, b) in full.iter().zip(&direct) {
            assert_eq!(
                scorpio_obs::json::to_string(&a.to_record()),
                scorpio_obs::json::to_string(&b.to_record())
            );
        }
        assert!(driver.stats().replays > 0, "batch must replay after item 1");
        assert_eq!(driver.stats().lane_blocks, 1, "full detail must use lane blocks");
    }

    #[test]
    fn item_count_is_bounded() {
        let line = |count: usize| {
            let items = vec!["0.5"; count].join(",");
            format!(r#"{{"kernel":"maclaurin","n":4,"items":[{items}]}}"#)
        };
        let at_bound = KernelRequest::from_value(&parse(&line(MAX_ITEMS)).unwrap()).unwrap();
        assert_eq!(at_bound.len(), MAX_ITEMS);
        let err = KernelRequest::from_value(&parse(&line(MAX_ITEMS + 1)).unwrap()).unwrap_err();
        assert!(err.contains(&MAX_ITEMS.to_string()), "{err}");
    }

    #[test]
    fn vars_rows_match_full_reports() {
        // 9 items: the first block of 4 is warm-up (record + width-1
        // replays), the second full block replays as one lane sweep, the
        // ninth item is remainder.
        let req = KernelRequest::Nbody(Batch {
            kernel: PairForce,
            items: (0..9)
                .map(|i| Pair::new(1.0 + 0.12 * i as f64, 0.01 + 0.005 * i as f64).unwrap())
                .collect(),
        });
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let mut lanes = LaneScratch::new();
        let vars = req.run_vars(&mut driver, &mut arena, &mut lanes).unwrap();
        let direct = req.direct_reports().unwrap();
        for (v, r) in vars.iter().zip(&direct) {
            assert_eq!(
                v.output_significance_raw().to_bits(),
                r.output_significance_raw().to_bits()
            );
            for (a, b) in v.registered().iter().zip(r.registered()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.significance.to_bits(), b.significance.to_bits());
            }
        }
        assert!(driver.stats().lane_blocks >= 1, "full block must use lanes");
    }
}
