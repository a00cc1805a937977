//! The `workload` layer: seeded inputs, produced on the benchmark side
//! and handed to the program as text only.

use modemerge_netlist::text;
use modemerge_workload::{generate_suite, SuiteSpec};

/// SplitMix64: the benchmark's own seeded choices (edit scripts, request
/// mixes, padding), independent of the generator's PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A generated suite as the program receives it: netlist text and
/// per-mode SDC text.
#[derive(Debug, Clone)]
pub struct SuiteText {
    pub netlist: String,
    pub modes: Vec<(String, String)>,
    /// Register instance names (`reg_*`), in netlist order.
    pub registers: Vec<String>,
}

impl SuiteText {
    /// Total input bytes (netlist plus every mode).
    pub fn bytes(&self) -> usize {
        self.netlist.len() + self.modes.iter().map(|(_, s)| s.len()).sum::<usize>()
    }
}

/// `SuiteSpec::scale(cells, modes, seed)`, rendered to text.
pub fn suite_text(cells: usize, modes: usize, seed: u64) -> SuiteText {
    let suite = generate_suite(&SuiteSpec::scale(cells, modes, seed));
    let registers = suite
        .netlist
        .instance_ids()
        .map(|id| suite.netlist.instance(id).name())
        .filter(|n| n.starts_with("reg_"))
        .map(str::to_owned)
        .collect();
    SuiteText {
        netlist: text::write(&suite.netlist),
        modes: suite
            .modes
            .iter()
            .map(|(name, sdc)| (name.clone(), sdc.to_text()))
            .collect(),
        registers,
    }
}

/// The number of merged modes a `SuiteSpec::scale` suite must merge to:
/// families of up to four mergeable modes, mutually non-mergeable.
pub fn expected_merged(modes: usize) -> usize {
    modes.div_ceil(4)
}

/// Commands whose first numeric argument is a constraint value an
/// engineer edits (delays, latencies, uncertainties, loads, drives).
const VALUE_COMMANDS: &[&str] = &[
    "set_input_delay",
    "set_output_delay",
    "set_clock_latency",
    "set_clock_uncertainty",
    "set_load",
    "set_drive",
];

/// Line indices of `sdc` that carry an editable value.
pub fn value_lines(sdc: &str) -> Vec<usize> {
    sdc.lines()
        .enumerate()
        .filter(|(_, l)| {
            let cmd = l.split_whitespace().next().unwrap_or("");
            VALUE_COMMANDS.contains(&cmd) && first_number(l).is_some()
        })
        .map(|(i, _)| i)
        .collect()
}

/// Byte range and value of the first numeric token after the command.
fn first_number(line: &str) -> Option<(usize, usize, f64)> {
    let mut pos = 0;
    for (k, tok) in line.split(' ').enumerate() {
        let start = pos;
        pos += tok.len() + 1;
        if k == 0 {
            continue;
        }
        if let Ok(v) = tok.parse::<f64>() {
            return Some((start, start + tok.len(), v));
        }
    }
    None
}

/// `sdc` with the value on line `line` scaled by `1 + rel`.
pub fn with_scaled_value(sdc: &str, line: usize, rel: f64) -> String {
    let mut out = String::with_capacity(sdc.len() + 8);
    for (i, l) in sdc.lines().enumerate() {
        if i == line {
            let (s, e, v) = first_number(l).expect("value line carries a number");
            let scaled = ((v * (1.0 + rel)) * 1e6).round() / 1e6;
            out.push_str(&l[..s]);
            out.push_str(&format!("{scaled}"));
            out.push_str(&l[e..]);
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

/// A per-register-pin false path.
pub fn false_path_line(register: &str) -> String {
    format!("set_false_path -to [get_pins {register}/D]")
}

/// Splits the suite's registers, in seeded order, into `pad` registers
/// for padding exceptions and the rest (the pool new exceptions are
/// typed against). Registers any mode already names are left out, so
/// every padded line is distinct from the generated constraints.
pub fn padding_registers(
    suite: &SuiteText,
    pad: usize,
    rng: &mut Rng,
) -> (Vec<String>, Vec<String>) {
    let mut free: Vec<String> = suite
        .registers
        .iter()
        .filter(|r| {
            let needle = format!("{r}/");
            !suite.modes.iter().any(|(_, s)| s.contains(&needle))
        })
        .cloned()
        .collect();
    rng.shuffle(&mut free);
    let rest = free.split_off(pad.min(free.len()));
    (free, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_the_first_number_only() {
        let sdc = "create_clock -name c -period 10 [get_ports clk]\n\
                   set_clock_uncertainty -setup 0.2 [get_clocks c]\n";
        assert_eq!(value_lines(sdc), vec![1]);
        let edited = with_scaled_value(sdc, 1, 0.5);
        assert!(edited.contains("-setup 0.3 [get_clocks c]"), "{edited}");
        assert!(edited.starts_with("create_clock -name c -period 10"));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
