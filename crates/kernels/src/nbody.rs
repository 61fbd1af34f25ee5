//! N-Body molecular-dynamics kernel (§4.1.4).
//!
//! Simulates liquid-argon atoms under the Lennard-Jones pair potential
//! (Eq. 13) in reduced units (`σ = ε = m = 1`), integrating with velocity
//! Verlet. The significance analysis confirms domain wisdom: an atom's
//! influence on another falls off steeply with distance (the `r⁻⁷` force
//! tail). The tasked version partitions the box into regions; for each
//! atom one task per region accumulates that region's force
//! contribution, with significance decreasing in the atom–region
//! distance. The approximate task body collapses the region to its
//! centre of mass (one interaction instead of many) — cheap, and
//! asymptotically exact for far regions.

// Index loops below walk several parallel arrays at once; zipped
// iterators would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scorpio_core::{AnalysisError, Ctx};
use scorpio_interval::Interval;
use scorpio_runtime::perforation::kept_indices;
use scorpio_runtime::{ExecutionStats, Executor, TaskGroup};

use crate::kernel::checked_radius;
use crate::{Kernel, NegativeRadius};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Atoms per box edge (total atoms = `edge³`).
    pub edge: usize,
    /// Lattice spacing in reduced units (≥ 2^(1/6) ≈ 1.122 keeps the
    /// initial state near the potential minimum).
    pub spacing: f64,
    /// Regions per box edge (total regions = `regions³`).
    pub regions: usize,
    /// Verlet time step.
    pub dt: f64,
    /// Number of integration steps.
    pub steps: usize,
    /// RNG seed for the initial thermal velocities.
    pub seed: u64,
}

impl Params {
    /// A small, fast configuration for tests.
    pub fn small() -> Params {
        Params {
            edge: 5,
            spacing: 1.2,
            regions: 3,
            dt: 0.002,
            steps: 4,
            seed: 42,
        }
    }

    /// A coarse-grained configuration (few regions, many atoms per
    /// region) where compute dominates task overhead — used by the
    /// energy-reduction tests.
    pub fn coarse() -> Params {
        Params {
            edge: 8,
            spacing: 1.2,
            regions: 2,
            dt: 0.002,
            steps: 2,
            seed: 42,
        }
    }

    /// The evaluation configuration for the Fig. 7 harness.
    pub fn evaluation() -> Params {
        Params {
            edge: 12,
            spacing: 1.2,
            regions: 3,
            dt: 0.002,
            steps: 4,
            seed: 7,
        }
    }

    /// Total number of atoms.
    pub fn atoms(&self) -> usize {
        self.edge * self.edge * self.edge
    }

    /// Box edge length.
    pub fn box_len(&self) -> f64 {
        self.edge as f64 * self.spacing
    }
}

/// Particle state: positions and velocities, structure-of-arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Positions, `[x, y, z]` per atom.
    pub pos: Vec<[f64; 3]>,
    /// Velocities, `[vx, vy, vz]` per atom.
    pub vel: Vec<[f64; 3]>,
}

impl State {
    /// Flattens positions and velocities into one signal for the
    /// relative-error quality metric.
    pub fn flatten(&self) -> Vec<f64> {
        self.pos
            .iter()
            .chain(self.vel.iter())
            .flat_map(|v| v.iter().copied())
            .collect()
    }
}

/// Builds the initial state: a cubic lattice with small random thermal
/// velocities (zero net momentum).
pub fn initial_state(params: &Params) -> State {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.atoms();
    let mut pos = Vec::with_capacity(n);
    let mut vel = Vec::with_capacity(n);
    for i in 0..params.edge {
        for j in 0..params.edge {
            for k in 0..params.edge {
                pos.push([
                    (i as f64 + 0.5) * params.spacing,
                    (j as f64 + 0.5) * params.spacing,
                    (k as f64 + 0.5) * params.spacing,
                ]);
                vel.push([
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                ]);
            }
        }
    }
    // Remove net momentum.
    let mut mean = [0.0; 3];
    for v in &vel {
        for d in 0..3 {
            mean[d] += v[d];
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    for v in &mut vel {
        for d in 0..3 {
            v[d] -= mean[d];
        }
    }
    State { pos, vel }
}

/// Lennard-Jones pair potential `V(r) = 4(r⁻¹² − r⁻⁶)` (Eq. 13 in
/// reduced units).
#[inline]
pub fn lj_potential(r: f64) -> f64 {
    let inv6 = r.powi(-6);
    4.0 * (inv6 * inv6 - inv6)
}

/// Physical observables of a [`State`] — the quantities a molecular-
/// dynamics practitioner checks to trust a simulation (and the basis of
/// the energy-conservation tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observables {
    /// Total kinetic energy `Σ ½m v²`.
    pub kinetic: f64,
    /// Total Lennard-Jones potential energy (all pairs).
    pub potential: f64,
    /// Instantaneous temperature in reduced units, `2·KE / (3N)`.
    pub temperature: f64,
    /// Net momentum magnitude (should stay ≈ 0).
    pub momentum: f64,
}

impl Observables {
    /// Total energy `KE + PE`.
    pub fn total_energy(&self) -> f64 {
        self.kinetic + self.potential
    }
}

/// Computes the observables of a state.
pub fn observables(state: &State) -> Observables {
    let n = state.pos.len();
    let mut kinetic = 0.0;
    let mut p = [0.0f64; 3];
    for v in &state.vel {
        kinetic += 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        for d in 0..3 {
            p[d] += v[d];
        }
    }
    let mut potential = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let r = (0..3)
                .map(|k| (state.pos[i][k] - state.pos[j][k]).powi(2))
                .sum::<f64>()
                .sqrt();
            potential += lj_potential(r);
        }
    }
    Observables {
        kinetic,
        potential,
        temperature: 2.0 * kinetic / (3.0 * n as f64),
        momentum: (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt(),
    }
}

/// Lennard-Jones force exerted on an atom at `a` by an atom at `b`
/// (Eq. 13 differentiated): `f = 24(2r⁻¹⁴ − r⁻⁸)·(a − b)`.
#[inline]
pub fn lj_force(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    if r2 < 1e-12 {
        return [0.0; 3];
    }
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    let scale = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
    [scale * dx, scale * dy, scale * dz]
}

/// All-pairs force computation (the paper's original loop structure).
fn forces_all_pairs(pos: &[[f64; 3]]) -> Vec<[f64; 3]> {
    let n = pos.len();
    let mut f = vec![[0.0; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let fij = lj_force(pos[i], pos[j]);
                for d in 0..3 {
                    f[i][d] += fij[d];
                }
            }
        }
    }
    f
}

/// A force routine: positions in, per-atom forces out.
type ForceFn<'a> = dyn FnMut(&[[f64; 3]]) -> Vec<[f64; 3]> + 'a;

/// One velocity-Verlet step given a force routine.
fn verlet_step(
    state: &mut State,
    dt: f64,
    forces: &mut ForceFn<'_>,
    f_old: &mut Vec<[f64; 3]>,
) {
    let n = state.pos.len();
    for i in 0..n {
        for d in 0..3 {
            state.pos[i][d] += dt * state.vel[i][d] + 0.5 * dt * dt * f_old[i][d];
        }
    }
    let f_new = forces(&state.pos);
    for i in 0..n {
        for d in 0..3 {
            state.vel[i][d] += 0.5 * dt * (f_old[i][d] + f_new[i][d]);
        }
    }
    *f_old = f_new;
}

/// Sequential accurate simulation.
pub fn reference(params: &Params) -> State {
    let _span = scorpio_obs::span("kernel.nbody.reference");
    let mut state = initial_state(params);
    let mut f = forces_all_pairs(&state.pos);
    for _ in 0..params.steps {
        verlet_step(&mut state, params.dt, &mut forces_all_pairs, &mut f);
    }
    state
}

/// Region decomposition: assigns each atom to a cubic cell.
fn region_of(pos: [f64; 3], params: &Params) -> usize {
    let cell = params.box_len() / params.regions as f64;
    let clamp = |x: f64| {
        ((x / cell) as isize).clamp(0, params.regions as isize - 1) as usize
    };
    let (rx, ry, rz) = (clamp(pos[0]), clamp(pos[1]), clamp(pos[2]));
    (rz * params.regions + ry) * params.regions + rx
}

/// Centre of a region cell.
fn region_center(r: usize, params: &Params) -> [f64; 3] {
    let cell = params.box_len() / params.regions as f64;
    let rx = r % params.regions;
    let ry = (r / params.regions) % params.regions;
    let rz = r / (params.regions * params.regions);
    [
        (rx as f64 + 0.5) * cell,
        (ry as f64 + 0.5) * cell,
        (rz as f64 + 0.5) * cell,
    ]
}

/// Task significance for an (atom, region) pair: the atom's own region
/// is forced accurate (significance 1.0 — a centre-of-mass collapse of
/// the atom's immediate neighbourhood would hit the steep `r⁻¹³` core),
/// then significance decays with the distance between the atom and the
/// region centre (neighbouring regions most significant, §4.1.4).
pub fn pair_significance(atom_pos: [f64; 3], region: usize, params: &Params) -> f64 {
    if region_of(atom_pos, params) == region {
        return 1.0;
    }
    let d = distance(atom_pos, region_center(region, params));
    let cell = params.box_len() / params.regions as f64;
    distance_significance(d, cell)
}

/// Euclidean distance between an atom and a region centre.
fn distance(a: [f64; 3], c: [f64; 3]) -> f64 {
    (0..3).map(|k| (a[k] - c[k]).powi(2)).sum::<f64>().sqrt()
}

/// [`pair_significance`] of a region other than the atom's own, from
/// the atom–centre distance `d`.
fn distance_significance(d: f64, cell: f64) -> f64 {
    // Distance in units of cells; within one cell diameter → ≈ 1.
    (1.0 / (1.0 + (d / cell).powi(2))).min(0.99)
}

/// Significance-driven task simulation: per step, one task per
/// (atom, region); the approximate body uses the region's centre of
/// mass.
pub fn tasked(params: &Params, executor: &Executor, ratio: f64) -> (State, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.nbody.tasked");
    let mut state = initial_state(params);
    let n = params.atoms();
    let n_regions = params.regions.pow(3);
    let mut stats = ExecutionStats::default();

    let mut forces = |pos: &[[f64; 3]]| -> Vec<[f64; 3]> {
        // Assign atoms to regions ("every few time-steps" in the paper;
        // every step here for simplicity).
        let homes: Vec<usize> = pos.iter().map(|&p| region_of(p, params)).collect();
        let centers: Vec<[f64; 3]> = (0..n_regions).map(|r| region_center(r, params)).collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_regions];
        for (i, &home) in homes.iter().enumerate() {
            members[home].push(i);
        }
        // Region summaries for the approximate bodies: a whole-region
        // centre of mass for far regions, eight octant centres of mass
        // for nearby ones (a one-level Barnes–Hut-style refinement that
        // keeps the steep LJ core acceptably resolved).
        let cell = params.box_len() / params.regions as f64;
        let coms: Vec<RegionSummary> = members
            .iter()
            .enumerate()
            .map(|(r, m)| {
                let center = centers[r];
                let mut com = ([0.0; 3], 0usize);
                let mut octants = [([0.0; 3], 0usize); 8];
                for &i in m {
                    let p = pos[i];
                    for d in 0..3 {
                        com.0[d] += p[d];
                    }
                    com.1 += 1;
                    let idx = (usize::from(p[0] >= center[0]))
                        | (usize::from(p[1] >= center[1]) << 1)
                        | (usize::from(p[2] >= center[2]) << 2);
                    for d in 0..3 {
                        octants[idx].0[d] += p[d];
                    }
                    octants[idx].1 += 1;
                }
                let normalize = |acc: &mut ([f64; 3], usize)| {
                    if acc.1 > 0 {
                        for v in &mut acc.0 {
                            *v /= acc.1 as f64;
                        }
                    }
                };
                normalize(&mut com);
                for o in &mut octants {
                    normalize(o);
                }
                RegionSummary { com, octants }
            })
            .collect();

        // One force per (atom, region) task, summed per atom after the
        // taskwait.
        let (partial, run_stats) = {
            // Every task body captures its (atom, region) indices and
            // this one reference.
            let tasks = &ForceTasks {
                pos,
                members: &members,
                coms: &coms,
                centers: &centers,
                near: 2.0 * cell,
            };
            let mut group = TaskGroup::with_capacity("nbody-forces", n * n_regions);
            for (atom, (&apos, &home)) in pos.iter().zip(&homes).enumerate() {
                for (r, &center) in centers.iter().enumerate() {
                    // `pair_significance`, from the distance the
                    // refinement test of the approximate body reads.
                    let sig = if r == home {
                        1.0
                    } else {
                        distance_significance(distance(apos, center), cell)
                    };
                    group.spawn(
                        sig,
                        move |ctx: &scorpio_runtime::TaskCtx| {
                            let mems = &tasks.members[r];
                            ctx.count_accurate_ops(mems.len() as u64);
                            let apos = tasks.pos[atom];
                            let mut f = [0.0; 3];
                            for &j in mems {
                                if j != atom {
                                    let fij = lj_force(apos, tasks.pos[j]);
                                    for d in 0..3 {
                                        f[d] += fij[d];
                                    }
                                }
                            }
                            f
                        },
                        Some(move |ctx: &scorpio_runtime::TaskCtx| {
                            let apos = tasks.pos[atom];
                            let summary = &tasks.coms[r];
                            let mut f = [0.0; 3];
                            // Near regions get the octant-refined
                            // approximation.
                            if distance(apos, tasks.centers[r]) < tasks.near {
                                ctx.count_approx_ops(8);
                                for (c, count) in &summary.octants {
                                    if *count > 0 {
                                        let fc = lj_force(apos, *c);
                                        for d in 0..3 {
                                            f[d] += fc[d] * *count as f64;
                                        }
                                    }
                                }
                            } else {
                                ctx.count_approx_ops(1);
                                let (c, count) = summary.com;
                                if count > 0 {
                                    let fc = lj_force(apos, c);
                                    for d in 0..3 {
                                        f[d] = fc[d] * count as f64;
                                    }
                                }
                            }
                            f
                        }),
                    );
                }
            }
            group.taskwait(executor, ratio)
        };
        stats.merge(&run_stats);

        partial
            .chunks(n_regions)
            .map(|per_region| {
                let mut f = [0.0; 3];
                for fr in per_region {
                    for d in 0..3 {
                        f[d] += fr[d];
                    }
                }
                f
            })
            .collect()
    };

    let mut f = forces(&state.pos);
    for _ in 0..params.steps {
        verlet_step(&mut state, params.dt, &mut forces, &mut f);
    }
    (state, stats)
}

/// Centre-of-mass summary of one region, with one octant refinement
/// level for nearby-region approximation.
struct RegionSummary {
    com: ([f64; 3], usize),
    octants: [([f64; 3], usize); 8],
}

/// What the force tasks of one evaluation read, shared by reference:
/// positions, region members and summaries, region centres and the
/// refinement distance.
struct ForceTasks<'a> {
    pos: &'a [[f64; 3]],
    members: &'a [Vec<usize>],
    coms: &'a [RegionSummary],
    centers: &'a [[f64; 3]],
    /// Regions whose centre is nearer than this get the octant-refined
    /// approximation.
    near: f64,
}

/// Loop-perforated simulation (§4.2): the per-atom force loop over all
/// other atoms skips a fraction of its iterations.
pub fn perforated(params: &Params, keep_fraction: f64) -> (State, ExecutionStats) {
    let _span = scorpio_obs::span("kernel.nbody.perforated");
    let n = params.atoms();
    let kept = kept_indices(n, keep_fraction);
    let mut ops = 0u64;
    let mut forces = |pos: &[[f64; 3]]| -> Vec<[f64; 3]> {
        let mut f = vec![[0.0; 3]; n];
        for i in 0..n {
            for &j in &kept {
                if i != j {
                    ops += 1;
                    let fij = lj_force(pos[i], pos[j]);
                    for d in 0..3 {
                        f[i][d] += fij[d];
                    }
                }
            }
        }
        f
    };
    let mut state = initial_state(params);
    let mut f = forces(&state.pos.clone());
    for _ in 0..params.steps {
        verlet_step(&mut state, params.dt, &mut |p| forces(p), &mut f);
    }
    (
        state,
        ExecutionStats {
            accurate_ops: ops,
            ..ExecutionStats::default()
        },
    )
}

/// Significance of atom B's position for the force on atom A at
/// separation `r0` (±`radius` uncertainty per coordinate) — the §4.1.4
/// distance-correlation analysis. Returns the raw summed significance of
/// B's three coordinates.
///
/// # Errors
///
/// Propagates framework errors (the kernel is branch-free).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn analysis_pair(r0: f64, radius: f64) -> Result<f64, AnalysisError> {
    let report = PairForce.report(&pair(r0, radius))?;
    Ok(["bx", "by", "bz"]
        .iter()
        .map(|n| report.var(n).map(|v| v.significance_raw).unwrap_or(0.0))
        .sum())
}

/// One analysed atom pair: B at distance `r0` along x from A, with
/// ±`radius` uncertainty per coordinate.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    r0: f64,
    radius: f64,
}

impl Pair {
    /// The pair at separation `r0` with per-coordinate radius `radius`.
    ///
    /// # Errors
    ///
    /// [`NegativeRadius`] if `radius` is negative (or NaN).
    pub fn new(r0: f64, radius: f64) -> Result<Pair, NegativeRadius> {
        checked_radius(radius).map(|radius| Pair { r0, radius })
    }
}

/// [`Pair::new`] for the library entry points that document a panic on
/// a negative radius.
fn pair(r0: f64, radius: f64) -> Pair {
    Pair::new(r0, radius).unwrap_or_else(|e| panic!("nbody analysis: {e}"))
}

/// The Lennard-Jones pair-force analysis descriptor: atom A at the
/// origin (point inputs), atom B boxed around its [`Pair`] position.
/// All six coordinates are input boxes, so the trace shape is
/// pair-independent.
#[derive(Debug, Clone, Copy)]
pub struct PairForce;

/// Registration names of the six coordinates, in input order.
const COORDS: [&str; 6] = ["ax", "ay", "az", "bx", "by", "bz"];

impl Kernel for PairForce {
    type Item = Pair;

    fn shape_key(&self) -> u64 {
        0
    }

    fn inputs(&self, p: &Pair) -> Vec<Interval> {
        vec![
            Interval::new(0.0, 0.0),
            Interval::new(0.0, 0.0),
            Interval::new(0.0, 0.0),
            Interval::centered(p.r0, p.radius),
            Interval::centered(0.0, p.radius),
            Interval::centered(0.0, p.radius),
        ]
    }

    fn register(&self, ctx: &Ctx<'_>, p: &Pair) -> Result<(), AnalysisError> {
        let boxes = self.inputs(p);
        let [ax, ay, az, bx, by, bz] =
            std::array::from_fn(|i| ctx.input(COORDS[i], boxes[i].inf(), boxes[i].sup()));

        let dx = ax - bx;
        let dy = ay - by;
        let dz = az - bz;
        let r2 = dx.sqr() + dy.sqr() + dz.sqr();
        let inv2 = r2.recip();
        let inv6 = inv2 * inv2 * inv2;
        let scale = inv2 * inv6 * (inv6 * 2.0 - 1.0) * 24.0;
        let fx = scale * dx;
        let fy = scale * dy;
        let fz = scale * dz;
        ctx.output(&fx, "fx");
        ctx.output(&fy, "fy");
        ctx.output(&fz, "fz");
        Ok(())
    }
}

/// Records the pair force at `(r0, radius)` ([`PairForce`]'s
/// registration).
///
/// # Errors
///
/// Propagates framework errors (the kernel is branch-free).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn register_pair(ctx: &Ctx<'_>, r0: f64, radius: f64) -> Result<(), AnalysisError> {
    PairForce.register(ctx, &pair(r0, radius))
}

/// The input boxes of [`register_pair`] ([`PairForce`]'s).
///
/// # Panics
///
/// Panics if `radius` is negative.
pub fn pair_inputs(r0: f64, radius: f64) -> Vec<Interval> {
    PairForce.inputs(&pair(r0, radius))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_quality::relative_error_l2;

    /// The form [`perforated`] replaced: the keep mask tested for
    /// every pair.
    fn perforated_masked(params: &Params, keep_fraction: f64) -> (State, u64) {
        let n = params.atoms();
        let perf = scorpio_runtime::perforation::Perforator::new(n, keep_fraction);
        let mut ops = 0u64;
        let mut forces = |pos: &[[f64; 3]]| -> Vec<[f64; 3]> {
            let mut f = vec![[0.0; 3]; n];
            for i in 0..n {
                for j in 0..n {
                    if i != j && perf.keep(j) {
                        ops += 1;
                        let fij = lj_force(pos[i], pos[j]);
                        for d in 0..3 {
                            f[i][d] += fij[d];
                        }
                    }
                }
            }
            f
        };
        let mut state = initial_state(params);
        let mut f = forces(&state.pos.clone());
        for _ in 0..params.steps {
            verlet_step(&mut state, params.dt, &mut |p| forces(p), &mut f);
        }
        (state, ops)
    }

    #[test]
    fn perforated_walks_kept_indices_bit_for_bit() {
        let params = Params::small();
        for keep in [0.0, 0.1, 0.37, 0.5, 0.9, 1.0] {
            let (state, stats) = perforated(&params, keep);
            let (want, ops) = perforated_masked(&params, keep);
            assert_eq!(stats.accurate_ops, ops, "keep {keep}");
            let bits = |s: &State| s.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&state), bits(&want), "keep {keep}");
        }
    }

    #[test]
    fn lj_force_physics() {
        // At the potential minimum r = 2^(1/6), the force vanishes.
        let rmin = 2.0f64.powf(1.0 / 6.0);
        let f = lj_force([rmin, 0.0, 0.0], [0.0, 0.0, 0.0]);
        assert!(f[0].abs() < 1e-10);
        // Closer: repulsive (positive x for atom on +x side).
        let f = lj_force([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        assert!(f[0] > 0.0);
        // Farther: attractive.
        let f = lj_force([1.5, 0.0, 0.0], [0.0, 0.0, 0.0]);
        assert!(f[0] < 0.0);
        // Newton's third law.
        let fab = lj_force([1.3, 0.2, -0.4], [0.1, -0.3, 0.5]);
        let fba = lj_force([0.1, -0.3, 0.5], [1.3, 0.2, -0.4]);
        for d in 0..3 {
            assert!((fab[d] + fba[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn reference_conserves_momentum() {
        let params = Params::small();
        let end = reference(&params);
        let mut p = [0.0; 3];
        for v in &end.vel {
            for d in 0..3 {
                p[d] += v[d];
            }
        }
        for d in 0..3 {
            assert!(p[d].abs() < 1e-9, "momentum component {d} = {}", p[d]);
        }
    }

    #[test]
    fn reference_approximately_conserves_energy() {
        let params = Params::small();
        let start = observables(&initial_state(&params));
        let end = observables(&reference(&params));
        let (e0, e1) = (start.total_energy(), end.total_energy());
        assert!(
            (e1 - e0).abs() < 0.05 * e0.abs().max(1.0),
            "energy drifted {e0} → {e1}"
        );
        // Momentum stays (numerically) zero throughout.
        assert!(end.momentum < 1e-9, "momentum {}", end.momentum);
        // The lattice starts slightly warm and stays finite.
        assert!(end.temperature > 0.0 && end.temperature < 1.0);
    }

    #[test]
    fn lj_potential_minimum_at_two_to_the_sixth() {
        let rmin = 2.0f64.powf(1.0 / 6.0);
        assert!((lj_potential(rmin) + 1.0).abs() < 1e-12);
        assert!(lj_potential(1.0).abs() < 1e-12); // V(σ) = 0
        assert!(lj_potential(3.0) < 0.0 && lj_potential(3.0) > -0.02);
    }

    #[test]
    fn approximate_execution_preserves_observables() {
        // The tasked run at ratio 0 must not wreck the physics: total
        // energy and temperature stay near the reference values.
        let params = Params::small();
        let executor = Executor::new(4);
        let exact = observables(&reference(&params));
        let (state, _) = tasked(&params, &executor, 0.0);
        let approx = observables(&state);
        let rel = ((approx.total_energy() - exact.total_energy())
            / exact.total_energy().abs())
        .abs();
        assert!(rel < 0.01, "total energy off by {rel}");
        assert!((approx.temperature - exact.temperature).abs() < 0.05);
    }

    #[test]
    fn tasked_ratio_one_matches_reference() {
        let params = Params::small();
        let executor = Executor::new(4);
        let (state, _) = tasked(&params, &executor, 1.0);
        let exact = reference(&params);
        let err = relative_error_l2(&exact.flatten(), &state.flatten());
        // Region-grouped summation reorders additions; tiny FP noise only.
        assert!(err < 1e-9, "rel err {err}");
    }

    #[test]
    fn tasked_fully_approximate_is_still_accurate() {
        // The headline N-Body result: centre-of-mass approximation of far
        // regions leaves a tiny relative error even at ratio 0 (paper:
        // 0.006 %).
        let params = Params::small();
        let executor = Executor::new(4);
        let (state, stats) = tasked(&params, &executor, 0.0);
        let exact = reference(&params);
        let err = relative_error_l2(&exact.flatten(), &state.flatten());
        assert!(err < 0.01, "rel err {err}");
        // Only the forced own-region tasks ran accurately: one per atom
        // per force evaluation.
        assert_eq!(stats.accurate, params.atoms() * (params.steps + 1));
    }

    #[test]
    fn tasked_quality_monotone_in_ratio() {
        let params = Params::small();
        let executor = Executor::new(4);
        let exact = reference(&params).flatten();
        let mut last = f64::INFINITY;
        for ratio in [0.0, 0.5, 1.0] {
            let (state, _) = tasked(&params, &executor, ratio);
            let err = relative_error_l2(&exact, &state.flatten());
            assert!(err <= last * 1.5 + 1e-12, "err {err} after {last}");
            last = err;
        }
    }

    #[test]
    fn significance_beats_perforation() {
        // Fig. 7 N-Body: ~6 orders of magnitude better error.
        let params = Params::small();
        let executor = Executor::new(4);
        let exact = reference(&params).flatten();
        let (sig_state, _) = tasked(&params, &executor, 0.0);
        let (perf_state, _) = perforated(&params, 0.8);
        let err_sig = relative_error_l2(&exact, &sig_state.flatten());
        let err_perf = relative_error_l2(&exact, &perf_state.flatten());
        assert!(
            err_sig < err_perf,
            "sig ratio-0 err {err_sig} must beat perforated-0.8 err {err_perf}"
        );
    }

    #[test]
    fn pair_significance_decays_with_distance() {
        let params = Params::small();
        let atom = [0.6, 0.6, 0.6];
        let near = pair_significance(atom, region_of(atom, &params), &params);
        assert_eq!(near, 1.0); // own region forced accurate
        let far_region = params.regions.pow(3) - 1;
        let far = pair_significance(atom, far_region, &params);
        assert!(far < 0.5);
    }

    #[test]
    fn analysis_confirms_distance_correlation() {
        let radius = 0.05;
        let mut last = f64::INFINITY;
        for r0 in [1.2, 1.8, 2.5, 4.0] {
            let s = analysis_pair(r0, radius).unwrap();
            assert!(s > 0.0);
            assert!(
                s < last,
                "significance must decay with distance: S({r0}) = {s}, previous {last}"
            );
            last = s;
        }
    }
}
