//! The served kernel catalogue.
//!
//! Each serve request names one of the five paper kernels plus its
//! structural parameters and a batch of items. This module turns the
//! parsed JSON into a typed [`KernelRequest`], derives the **shape
//! key** the compiled-tape cache is keyed on, and executes the batch
//! through a [`ReplayOrRecord`] driver over the public
//! `register_*`/`*_inputs` pairs the kernel crate exports.
//!
//! # Shape keys
//!
//! A compiled trace replays correctly only for requests whose trace
//! *structure* matches; everything that is baked into the trace as a
//! constant (rather than flowing through a positional input) must be
//! part of the key:
//!
//! * `fisheye` — the lens focal length and image centre are trace
//!   constants, so the key hashes `(width, height)`; the per-pixel
//!   coordinates are replayable inputs.
//! * `maclaurin` — the series length `n` decides the trace length, so
//!   it *is* the key; `x₀` is a replayable input.
//! * `blackscholes`, `dct`, `nbody` — every varying value flows
//!   through positional inputs, so each has a single constant key.
//!
//! An incorrect key cannot corrupt results — the driver's own keyed
//! guards degrade a mismatch to a fresh recording — but a missing key
//! component would silently disable caching, so each kernel's key is
//! spelled out here next to its registration closure.

use scorpio_core::{
    Analysis, AnalysisArena, AnalysisError, Ctx, LaneScratch, OutputDetail, Report,
    ReplayOrRecord, VarSignificances, DEFAULT_LANES,
};
use scorpio_kernels::blackscholes::{self, Option_};
use scorpio_kernels::dct::{self, BLOCK};
use scorpio_kernels::fisheye::{self, Lens};
use scorpio_kernels::{maclaurin, nbody};
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

/// One parsed analyze request: the kernel, its structural parameters
/// and the item batch.
#[derive(Debug, Clone)]
pub enum KernelRequest {
    /// Fisheye InverseMapping pixels on a `width × height` image.
    Fisheye {
        /// Image width the lens is fitted to.
        width: usize,
        /// Image height the lens is fitted to.
        height: usize,
        /// `(u, v)` pixel coordinates to analyse.
        items: Vec<(f64, f64)>,
    },
    /// Black–Scholes option pricing.
    Blackscholes {
        /// Options to analyse (the `call` flag defaults to `true`; the
        /// analysis traces the call-branch block structure either way).
        items: Vec<Option_>,
    },
    /// 8×8 DCT blocks.
    Dct {
        /// Per-pixel input-box radius.
        radius: f64,
        /// Row-major 64-pixel blocks.
        items: Vec<[[f64; BLOCK]; BLOCK]>,
    },
    /// Maclaurin series of §3.
    Maclaurin {
        /// Series length (trace-structural: part of the shape key).
        n: usize,
        /// Expansion points `x₀`.
        items: Vec<f64>,
    },
    /// Lennard-Jones pair force.
    Nbody {
        /// `(r0, radius)` separations to analyse.
        items: Vec<(f64, f64)>,
    },
}

/// splitmix64 finalizer — the same mixer the audit fuzzer's
/// [`SplitMix64`](scorpio_core::audit::SplitMix64) stream uses, applied
/// here to spread low-entropy structural parameters over the key space.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
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
        return Err(format!("field \"{key}\" must be a small non-negative integer"));
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
                let items = items
                    .iter()
                    .map(|it| Ok((num_field(it, "u")?, num_field(it, "v")?)))
                    .collect::<Result<_, String>>()?;
                Ok(KernelRequest::Fisheye {
                    width,
                    height,
                    items,
                })
            }
            "blackscholes" => {
                let items = items
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
                    .collect::<Result<_, String>>()?;
                Ok(KernelRequest::Blackscholes { items })
            }
            "dct" => {
                let radius = num_field_or(v, "radius", 1.0)?;
                let items = items
                    .iter()
                    .map(|it| {
                        let pixels = it
                            .as_arr()
                            .filter(|a| a.len() == BLOCK * BLOCK)
                            .ok_or_else(|| {
                                format!("each dct item must be an array of {} pixels", BLOCK * BLOCK)
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
                Ok(KernelRequest::Dct { radius, items })
            }
            "maclaurin" => {
                let n = usize_field(v, "n")?;
                if n == 0 || n > 4096 {
                    return Err("maclaurin \"n\" must be in 1..=4096".to_string());
                }
                let items = items
                    .iter()
                    .map(|it| {
                        it.as_f64()
                            .filter(|x| x.is_finite())
                            .ok_or_else(|| "each maclaurin item must be a number x0".to_string())
                    })
                    .collect::<Result<_, String>>()?;
                Ok(KernelRequest::Maclaurin { n, items })
            }
            "nbody" => {
                let items = items
                    .iter()
                    .map(|it| Ok((num_field(it, "r0")?, num_field(it, "radius")?)))
                    .collect::<Result<_, String>>()?;
                Ok(KernelRequest::Nbody { items })
            }
            other => Err(format!("unknown kernel \"{other}\"")),
        }
    }

    /// The kernel's catalogue name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelRequest::Fisheye { .. } => "fisheye",
            KernelRequest::Blackscholes { .. } => "blackscholes",
            KernelRequest::Dct { .. } => "dct",
            KernelRequest::Maclaurin { .. } => "maclaurin",
            KernelRequest::Nbody { .. } => "nbody",
        }
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        match self {
            KernelRequest::Fisheye { items, .. } => items.len(),
            KernelRequest::Blackscholes { items } => items.len(),
            KernelRequest::Dct { items, .. } => items.len(),
            KernelRequest::Maclaurin { items, .. } => items.len(),
            KernelRequest::Nbody { items } => items.len(),
        }
    }

    /// `true` when the batch has no items (rejected at parse time, so
    /// never observed on the execution path).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache shape key (see the [module docs](self) for what each
    /// kernel must include and why).
    pub fn shape_key(&self) -> u64 {
        match self {
            KernelRequest::Fisheye { width, height, .. } => {
                mix(mix(*width as u64) ^ (*height as u64))
            }
            KernelRequest::Blackscholes { .. } => 0,
            KernelRequest::Dct { .. } => 0,
            KernelRequest::Maclaurin { n, .. } => *n as u64,
            KernelRequest::Nbody { .. } => 0,
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

    /// Runs the batch at detail `D` under the request's shape key,
    /// chunking items at [`DEFAULT_LANES`] granularity so full blocks
    /// take one walk of the compiled op stream.
    fn run<D: OutputDetail>(
        &self,
        driver: &mut ReplayOrRecord,
        arena: &mut AnalysisArena,
        lanes: &mut LaneScratch<DEFAULT_LANES>,
    ) -> Result<Vec<D>, AnalysisError> {
        let key = Some(self.shape_key());
        let mut out = Vec::with_capacity(self.len());
        // A macro rather than a helper fn: the closures differ in type
        // per kernel, and a helper's bounds would have to name
        // `Interval`, from a crate this one does not depend on.
        macro_rules! run_blocks {
            ($items:expr, $inputs_of:expr, $register:expr) => {
                for block in $items.chunks(DEFAULT_LANES) {
                    driver.run_block(key, arena, lanes, block, &$inputs_of, &$register, &mut out)?;
                }
            };
        }
        match self {
            KernelRequest::Fisheye {
                width,
                height,
                items,
            } => {
                let lens = Lens::for_image(*width, *height);
                run_blocks!(
                    items,
                    |&(u, v)| fisheye::inverse_mapping_inputs(&lens, u, v),
                    |ctx, &(u, v)| fisheye::register_inverse_mapping(ctx, &lens, u, v)
                );
            }
            KernelRequest::Blackscholes { items } => {
                run_blocks!(items, blackscholes::option_inputs, |ctx, o| {
                    blackscholes::register_option(ctx, o)
                });
            }
            KernelRequest::Dct { radius, items } => {
                run_blocks!(
                    items,
                    |b| dct::block_inputs(b, *radius),
                    |ctx, b| dct::register_block(ctx, b, *radius)
                );
            }
            KernelRequest::Maclaurin { n, items } => {
                run_blocks!(
                    items,
                    |&x0| maclaurin::series_inputs(x0),
                    |ctx, &x0| maclaurin::register_series(ctx, x0, *n)
                );
            }
            KernelRequest::Nbody { items } => {
                run_blocks!(
                    items,
                    |&(r0, radius)| nbody::pair_inputs(r0, radius),
                    |ctx, &(r0, radius)| nbody::register_pair(ctx, r0, radius)
                );
            }
        }
        Ok(out)
    }

    /// Runs the batch as direct, replay-free library calls — one fresh
    /// [`Analysis`] recording per item, exactly what a caller linking
    /// the library would compute. The round-trip test compares served
    /// reports against these bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first failing item's [`AnalysisError`].
    pub fn direct_reports(&self) -> Result<Vec<Report>, AnalysisError> {
        let run = |f: &dyn Fn(&Ctx<'_>) -> Result<(), AnalysisError>| Analysis::new().run(f);
        match self {
            KernelRequest::Fisheye {
                width,
                height,
                items,
            } => {
                let lens = Lens::for_image(*width, *height);
                items
                    .iter()
                    .map(|&(u, v)| {
                        run(&|ctx| fisheye::register_inverse_mapping(ctx, &lens, u, v))
                    })
                    .collect()
            }
            KernelRequest::Blackscholes { items } => items
                .iter()
                .map(|o| run(&|ctx| blackscholes::register_option(ctx, o)))
                .collect(),
            KernelRequest::Dct { radius, items } => items
                .iter()
                .map(|b| run(&|ctx| dct::register_block(ctx, b, *radius)))
                .collect(),
            KernelRequest::Maclaurin { n, items } => items
                .iter()
                .map(|&x0| run(&|ctx| maclaurin::register_series(ctx, x0, *n)))
                .collect(),
            KernelRequest::Nbody { items } => items
                .iter()
                .map(|&(r0, radius)| run(&|ctx| nbody::register_pair(ctx, r0, radius)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ];
        for (line, needle) in cases {
            let v = parse(line).unwrap();
            let err = KernelRequest::from_value(&v).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn shape_keys_separate_structural_variants() {
        let req = |line: &str| KernelRequest::from_value(&parse(line).unwrap()).unwrap();
        let a = req(r#"{"kernel":"maclaurin","n":4,"items":[0.5]}"#);
        let b = req(r#"{"kernel":"maclaurin","n":5,"items":[0.5]}"#);
        assert_ne!(a.shape_key(), b.shape_key());
        let c = req(r#"{"kernel":"fisheye","width":64,"height":64,"items":[{"u":1,"v":2}]}"#);
        let d = req(r#"{"kernel":"fisheye","width":64,"height":32,"items":[{"u":1,"v":2}]}"#);
        assert_ne!(c.shape_key(), d.shape_key());
        // Item values must NOT affect the key: same shape ⇒ same trace.
        let e = req(r#"{"kernel":"fisheye","width":64,"height":64,"items":[{"u":9,"v":9}]}"#);
        assert_eq!(c.shape_key(), e.shape_key());
    }

    #[test]
    fn replayed_batch_is_bit_identical_to_direct_calls() {
        let req = KernelRequest::Maclaurin {
            n: 8,
            items: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        };
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
        let req = KernelRequest::Nbody {
            items: (0..9)
                .map(|i| (1.0 + 0.12 * i as f64, 0.01 + 0.005 * i as f64))
                .collect(),
        };
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
