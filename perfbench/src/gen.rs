//! The seeded input generator.
//!
//! Every generated input is a pure function of `(seed, client, sequence)`:
//! no clock, no global state, no randomness source besides `splitmix64`.
//! Two runs with the same seed therefore send the same bodies in the same
//! per-client order.

/// The frozen Fig. 4 scenario every workload is built from (a copy of
/// `scenarios/fig4.scn`, kept here so edits to the shipped scenario do not
/// silently change what the benchmark measures).
pub const FIG4_SCN: &str = include_str!("../fig4.scn");

/// Sweep modes of the Fig. 4 grid, as spelled in the scenario format.
pub const GRID_MODES: [&str; 3] = ["phs_only", "bes_only", "both"];

/// σ values of the Fig. 4 grid, as spelled in `fig4.scn`.
pub const GRID_SIGMAS: [&str; 9] = [
    "0", "0.005", "0.01", "0.025", "0.05", "0.075", "0.1", "0.125", "0.15",
];

/// Unique σ values live in `[UNIQUE_SIGMA_LO, UNIQUE_SIGMA_LO + UNIQUE_SPAN)`
/// (in units of 1e-7): 0.03 .. 0.0355, strictly between the grid's 0.025
/// and 0.05, so a unique σ can never collide with a pre-warmed row.
const UNIQUE_SIGMA_LO: u64 = 300_000;
const UNIQUE_SPAN: u64 = 50_000;
/// Requests one client may send in one run before unique σ values could
/// repeat (far above what a 60 s window reaches).
pub const MAX_SEQ: u64 = 2_000;

/// One step of the splitmix64 generator: a bijective 64-bit mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash of `(seed, client, seq, salt)`.
fn mix(seed: u64, client: u64, seq: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt) ^ client) ^ seq)
}

/// One dashboard request: Fig. 4 restricted to one mode and three σ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DashboardBody {
    /// The sweep mode.
    pub mode: &'static str,
    /// Two distinct σ values of the pre-warmed grid, in request order.
    pub hot: [&'static str; 2],
    /// The σ value no other request of the run uses.
    pub unique: String,
    /// The request body (scenario text).
    pub text: String,
}

/// The dashboard body client `client` sends as its `seq`-th request
/// (`client < clients`, `seq < MAX_SEQ`).
///
/// The hot σ values come first and the unique one last, so the first
/// streamed row is always a row-cache hit and the time to it is the
/// request's fixed cost.
///
/// # Panics
///
/// Panics if `client >= clients` or `seq >= MAX_SEQ`: beyond those the
/// unique σ values could repeat.
pub fn dashboard_body(seed: u64, clients: u64, client: u64, seq: u64) -> DashboardBody {
    assert!(client < clients, "client {client} out of {clients}");
    assert!(seq < MAX_SEQ, "sequence {seq} past {MAX_SEQ}");
    let mode = GRID_MODES[(mix(seed, client, seq, 1) % 3) as usize];
    let n = GRID_SIGMAS.len() as u64;
    let a = mix(seed, client, seq, 2) % n;
    let b = (a + 1 + mix(seed, client, seq, 3) % (n - 1)) % n;
    let hot = [GRID_SIGMAS[a as usize], GRID_SIGMAS[b as usize]];
    // Unique per (client, seq) within a run; the seed shifts the block.
    let slot = seq * clients + client;
    let offset = splitmix64(seed) % (UNIQUE_SPAN - MAX_SEQ * clients);
    let unique = ((UNIQUE_SIGMA_LO + offset + slot) as f64 / 1e7).to_string();
    let text = with_sweep(mode, &format!("{}, {}, {unique}", hot[0], hot[1]));
    DashboardBody {
        mode,
        hot,
        unique,
        text,
    }
}

/// `FIG4_SCN` with its sweep lines replaced.
fn with_sweep(mode: &str, sigmas: &str) -> String {
    let mut out = String::with_capacity(FIG4_SCN.len());
    for line in FIG4_SCN.lines() {
        if line.starts_with("mode =") {
            out.push_str(&format!("mode = {mode}"));
        } else if line.starts_with("sigma =") {
            out.push_str(&format!("sigma = {sigmas}"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn bodies_are_a_pure_function_of_seed_client_and_sequence() {
        for seed in [0, 1, 42, u64::MAX] {
            for client in 0..2 {
                for seq in [0, 1, 7, MAX_SEQ - 1] {
                    assert_eq!(
                        dashboard_body(seed, 2, client, seq),
                        dashboard_body(seed, 2, client, seq)
                    );
                }
            }
        }
        let a: Vec<_> = (0..50).map(|s| dashboard_body(1, 2, 0, s).text).collect();
        let b: Vec<_> = (0..50).map(|s| dashboard_body(2, 2, 0, s).text).collect();
        assert_ne!(a, b, "the seed must change the inputs");
    }

    #[test]
    fn hot_sigmas_are_distinct_grid_values_and_unique_sigmas_never_repeat() {
        let mut uniques = HashSet::new();
        for seed in [3, 99] {
            uniques.clear();
            for client in 0..2 {
                for seq in 0..MAX_SEQ {
                    let body = dashboard_body(seed, 2, client, seq);
                    assert_ne!(body.hot[0], body.hot[1]);
                    assert!(body.hot.iter().all(|h| GRID_SIGMAS.contains(h)));
                    assert!(GRID_MODES.contains(&body.mode));
                    let u: f64 = body.unique.parse().expect("unique σ parses");
                    assert!((0.03..0.0355).contains(&u), "{u}");
                    assert!(!GRID_SIGMAS.contains(&body.unique.as_str()));
                    assert!(uniques.insert(body.unique), "repeated unique σ");
                }
            }
        }
    }

    #[test]
    fn body_is_fig4_with_one_mode_and_three_sigmas() {
        let body = dashboard_body(5, 2, 1, 3);
        let sweep: Vec<&str> = body
            .text
            .lines()
            .filter(|l| l.starts_with("mode =") || l.starts_with("sigma ="))
            .collect();
        assert_eq!(
            sweep,
            [
                format!("mode = {}", body.mode),
                format!("sigma = {}, {}, {}", body.hot[0], body.hot[1], body.unique)
            ]
        );
        let rest = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| !l.starts_with("mode =") && !l.starts_with("sigma ="))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(rest(&body.text), rest(FIG4_SCN));
    }

    #[test]
    fn frozen_fig4_has_the_grid_the_generator_draws_from() {
        let line = |key: &str| {
            FIG4_SCN
                .lines()
                .find(|l| l.starts_with(key))
                .expect("fig4 line")
                .split_once('=')
                .expect("key = value")
                .1
                .split(',')
                .map(|v| v.trim().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(line("mode ="), GRID_MODES);
        assert_eq!(line("sigma ="), GRID_SIGMAS);
    }
}
