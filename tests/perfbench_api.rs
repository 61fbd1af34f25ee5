//! The library surface the `perfbench/` harness calls, pinned at
//! compile time.
//!
//! perfbench is a workspace of its own, so `cargo test` here never
//! builds it: deleting or re-typing a function it calls would only
//! show up in a separate perfbench build. Each line below coerces one
//! such function to its exact `fn` pointer type (methods reached
//! through `Deref` or generic ones through the call form perfbench
//! uses), so that change fails this test instead.

use scorpio::analysis::audit::SplitMix64;
use scorpio::analysis::{
    Analysis, AnalysisArena, AnalysisError, Ctx, LaneScratch, ParallelAnalysis, Partition,
    RegisteredVar, ReplayOrRecord, ReplayStats, Report, ReportRecord, SigGraph, VarSignificances,
    DEFAULT_LANES,
};
use scorpio::interval::Interval;
use scorpio::kernels::blackscholes::{self, Option_};
use scorpio::kernels::dct::{self, BLOCK};
use scorpio::kernels::fisheye::{self, Lens};
use scorpio::kernels::{nbody, sobel};
use scorpio::obs::json::{self, Value};
use scorpio::quality::{psnr_images, relative_error_l2, GrayImage, SyntheticImage};
use scorpio::runtime::{EnergyModel, ExecutionStats, Executor};
use scorpio::serve::protocol::{self, ParseError, Request};
use scorpio::serve::KernelRequest;

type Res<T> = Result<T, AnalysisError>;
type Sweep<T> = (T, ExecutionStats);
type Block = [[f64; BLOCK]; BLOCK];
type Pair = (f64, f64);
type Blocks = (f64, f64, f64, f64);
type Inputs<T> = fn(&T) -> Vec<Interval>;
type Register<T> = fn(&Ctx<'_>, &T) -> Res<()>;
type BookSweep = fn(&[Option_], usize, &Executor, f64) -> Sweep<Vec<f64>>;
type RunVarsIn = fn(
    &mut ReplayOrRecord,
    &mut AnalysisArena,
    &[Interval],
    fn(&Ctx<'_>) -> Res<()>,
) -> Res<VarSignificances>;
type RunLanesIn = fn(
    &mut ReplayOrRecord,
    &mut AnalysisArena,
    &mut LaneScratch<DEFAULT_LANES>,
    &[Pair],
    &Inputs<Pair>,
    &Register<Pair>,
    &mut Vec<Report>,
) -> Res<()>;
type BatchMap = fn(
    &ParallelAnalysis,
    &[Pair],
    Inputs<Pair>,
    Register<Pair>,
    fn(&Pair, &VarSignificances) -> Res<f64>,
) -> Res<(Vec<f64>, ReplayStats)>;
type Run = fn(
    &KernelRequest,
    &mut ReplayOrRecord,
    &mut AnalysisArena,
    &mut LaneScratch<DEFAULT_LANES>,
) -> Res<Vec<VarSignificances>>;

#[test]
fn kernel_entry_points_keep_their_signatures() {
    let _: fn() -> Res<Report> = sobel::analysis;
    let _: fn(usize, usize) -> Res<Vec<Pair>> = sobel::analysis_combine_threaded;

    let _: fn(&mut AnalysisArena, &Block, f64) -> Res<Report> = dct::analysis_in;
    let _: fn(&[Block], f64, &ParallelAnalysis) -> Res<Vec<Block>> =
        dct::analysis_blocks_lanes::<DEFAULT_LANES>;
    let _: fn(&VarSignificances) -> Block = dct::coefficient_map;
    let _: fn(&Report) -> Block = |report| dct::coefficient_map(report);
    let _: fn(&Block, f64) -> Vec<Interval> = dct::block_inputs;
    let _: fn(&Ctx<'_>, &Block, f64) -> Res<()> = dct::register_block;

    let _: fn(&mut AnalysisArena, &Lens, f64, f64) -> Res<f64> =
        fisheye::analysis_inverse_mapping_in;
    let _: fn(&Lens, usize, usize, &ParallelAnalysis) -> Res<Vec<f64>> =
        fisheye::analysis_inverse_mapping_grid_lanes::<DEFAULT_LANES>;
    let _: fn(&Lens, f64, f64) -> Vec<Interval> = fisheye::inverse_mapping_inputs;
    let _: fn(&Ctx<'_>, &Lens, f64, f64) -> Res<()> = fisheye::register_inverse_mapping;

    let _: fn(f64, f64) -> Res<f64> = nbody::analysis_pair;
    let _: fn(f64, f64) -> Vec<Interval> = nbody::pair_inputs;
    let _: fn(&Ctx<'_>, f64, f64) -> Res<()> = nbody::register_pair;

    let _: fn(&mut AnalysisArena, &Option_) -> Res<Blocks> = blackscholes::analysis_option_in;
    let _: fn(&[Option_], &ParallelAnalysis) -> Res<Vec<Blocks>> =
        blackscholes::analysis_options_lanes::<DEFAULT_LANES>;
    let _: Inputs<Option_> = blackscholes::option_inputs;
    let _: Register<Option_> = blackscholes::register_option;
    let _: fn(usize, u64) -> Vec<Option_> = blackscholes::generate_options;
}

#[test]
fn sweep_kernels_keep_their_signatures() {
    let _: fn(&GrayImage) -> GrayImage = sobel::reference;
    let _: fn(&GrayImage, &Executor, f64) -> Sweep<GrayImage> = sobel::tasked;
    let _: fn(&GrayImage, f64) -> Sweep<GrayImage> = sobel::perforated;
    let _: fn(&GrayImage) -> GrayImage = dct::reference;
    let _: fn(&GrayImage, &Executor, f64) -> Sweep<GrayImage> = dct::tasked;
    let _: fn(&GrayImage, f64) -> Sweep<GrayImage> = dct::perforated;
    let _: fn(&GrayImage, &Lens) -> GrayImage = fisheye::reference;
    let _: fn(&GrayImage, &Lens, &Executor, f64, usize, usize) -> Sweep<GrayImage> =
        fisheye::tasked_with_blocks;
    let _: fn(&GrayImage, &Lens, f64) -> Sweep<GrayImage> = fisheye::perforated;
    let _: fn(&nbody::Params) -> nbody::State = nbody::reference;
    let _: fn(&nbody::Params, &Executor, f64) -> Sweep<nbody::State> = nbody::tasked;
    let _: fn(&nbody::Params, f64) -> Sweep<nbody::State> = nbody::perforated;
    let _: fn() -> nbody::Params = nbody::Params::evaluation;
    let _: fn(&[Option_]) -> Vec<f64> = blackscholes::reference;
    let _: BookSweep = blackscholes::tasked;
    let _: fn(usize, usize) -> Lens = Lens::for_image;
    let _: fn(usize) -> Executor = Executor::new;
    let _: fn() -> EnergyModel = EnergyModel::xeon_e5_2695v3;
    let _: fn(&GrayImage, &GrayImage) -> f64 = psnr_images;
    let _: fn(&[f64], &[f64]) -> f64 = relative_error_l2;
    let _: fn(SyntheticImage, usize, usize, u64) -> GrayImage = SyntheticImage::render;
}

#[test]
fn analysis_drivers_keep_their_signatures() {
    let _: fn() -> Analysis = Analysis::new;
    let _: fn(&Analysis) -> f64 = Analysis::delta;
    let _: fn(usize) -> ParallelAnalysis = ParallelAnalysis::new;
    let _: fn() -> AnalysisArena = AnalysisArena::new;
    let _: fn(usize) -> AnalysisArena = AnalysisArena::with_capacity;
    let _: fn() -> LaneScratch<DEFAULT_LANES> = LaneScratch::new;
    let _: fn(Analysis) -> ReplayOrRecord = ReplayOrRecord::new;
    let _: fn(&ReplayOrRecord) -> ReplayStats = ReplayOrRecord::stats;
    let _: fn(&mut ReplayOrRecord) = ReplayOrRecord::clear_compiled;
    let _: RunVarsIn = ReplayOrRecord::run_vars_in;
    let _: RunLanesIn = ReplayOrRecord::run_lanes_in;
    let _: BatchMap =
        ParallelAnalysis::run_batch_replay_vars_map_lanes::<DEFAULT_LANES, _, _, _, _, _>;
    let _: fn(&Report) -> &SigGraph = Report::graph;
    let _: fn(&Report) -> Partition = Report::partition;
    let _: fn(&Report) -> String = Report::to_json;
    let _: fn(&SigGraph) -> SigGraph = SigGraph::simplified;
    let _: fn(&SigGraph, f64) -> Partition = SigGraph::partition;
    let _: for<'a> fn(&'a VarSignificances, &str) -> Option<&'a RegisteredVar> =
        VarSignificances::var;
    let _: fn(&VarSignificances) -> f64 = VarSignificances::output_significance_raw;
    let _: fn(&Report) -> f64 = |report| report.output_significance_raw();
    let _: fn(u64) -> SplitMix64 = SplitMix64::new;
    let _: fn(&mut SplitMix64, usize) -> usize = SplitMix64::below;
    let _: fn(f64, f64) -> Interval = Interval::new;
}

#[test]
fn serve_entry_points_keep_their_signatures() {
    let _: Run = KernelRequest::run_vars;
    let _: fn(&KernelRequest) -> Res<Vec<Report>> = KernelRequest::direct_reports;
    let _: fn(&KernelRequest) -> &'static str = KernelRequest::name;
    let _: fn(&str) -> Result<Request, ParseError> = protocol::parse_request;
    let _: fn(&VarSignificances) -> ReportRecord = protocol::vars_to_record;
    let _: fn(u64) -> String = protocol::trace_id_hex;
    let _: fn(&protocol::AnalyzeResponse) -> String = protocol::response_line;
    let _: fn(&str) -> Result<Value, String> = json::parse;
}
