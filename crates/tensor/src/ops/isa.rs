//! Runtime choice of the instruction set a kernel body is compiled for.
//!
//! The workspace builds for baseline x86-64, whose widest float lanes are
//! SSE2's four. [`Isa::run`] compiles the body it is given three times:
//! inline for the baseline, inside an `avx2`-enabled function, where LLVM
//! vectorizes the same loops eight lanes wide, and inside an
//! `avx2,avx512f`-enabled function, where it vectorizes them sixteen lanes
//! wide. Which copy runs follows the CPU, as reported by
//! `is_x86_feature_detected!` (which caches its answer): the widest copy
//! it can run. Built with `RUSTFLAGS="--cfg adv_baseline_isa"`, every CPU
//! runs the baseline copy, which lets CI check that copy end to end; no
//! runtime option selects a copy.
//!
//! The three copies compute bit-identical results. The kernel loops keep
//! each output's sum in scalar order and vectorize only across outputs,
//! LLVM does not reassociate float arithmetic, and Rust never contracts
//! `a * b + c` into a fused multiply-add (not even where rustc's
//! `avx512f` brings `fma` along), so the wider lanes perform the same
//! roundings in the same order.
//!
//! A body is a closure marked `#[inline(always)]`, and so are the helpers
//! it calls: a helper left out of line is compiled once, for the baseline,
//! and the wide copies would call it unchanged. On other architectures
//! only the baseline copy exists.
//!
//! A body that compiles is not yet a vectorized body. A loop whose element
//! work sits behind a data-dependent branch stays scalar in every copy:
//! in `math::exp`, selecting the special cases in the same loop as the
//! main path let LLVM sink the main path, table load included, behind the
//! special cases' branch, and the AVX2 copy came out scalar and slower
//! than libm (a `static` table did the same). The slice kernels in
//! `math` therefore compute the main path in one pass and select the
//! special cases in a second, and their table is a `const`. To check a
//! copy, disassemble the newest build of the library and count `zmm`
//! registers in the `isa::avx512` instance the kernel calls (here
//! `sigmoid_into`'s; `ymm` in the `isa::avx2` instance):
//!
//! ```text
//! cargo build --release -p adv-tensor
//! objdump -dr --no-show-raw-insn $(ls -t target/release/deps/libadv_tensor-*.rlib | head -1) > tensor.asm
//! grep -A60 '<_ZN10adv_tensor4math12sigmoid_into' tensor.asm | grep -om1 '_ZN10adv_tensor3ops3isa6avx512[0-9a-z]*E'
//! awk '$2 == "<SYMBOL>:" {p=1} p && /^$/ {exit} p' tensor.asm | grep -c zmm
//! ```
//!
//! with `SYMBOL` the name the third line printed. Zero means the copy is
//! not 16 lanes wide.

/// The instruction set a kernel body runs with: the baseline, AVX2, or
/// AVX-512 (with AVX2). A wide `Isa` comes only from [`Isa::detected`],
/// after the CPU reported every feature its copy enables, which is what
/// makes [`Isa::run`] sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Baseline,
    Avx2,
    Avx512,
}

impl Isa {
    /// The build's baseline instruction set, which every CPU runs.
    pub(crate) const BASELINE: Isa = Isa(Level::Baseline);

    /// The widest instruction set this CPU supports, or the baseline in a
    /// build with `--cfg adv_baseline_isa`.
    pub(crate) fn detected() -> Isa {
        if cfg!(adv_baseline_isa) {
            return Isa::BASELINE;
        }
        Isa::widest()
    }

    /// The widest instruction set this CPU supports. rustc's `avx512f`
    /// also enables `fma` and `f16c`, so the AVX-512 copy needs all four
    /// features of `avx2,avx512f`.
    fn widest() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                if has!("avx512f") && has!("fma") && has!("f16c") {
                    return Isa(Level::Avx512);
                }
                return Isa(Level::Avx2);
            }
        }
        Isa::BASELINE
    }

    /// The `f32` lanes of this instruction set's widest vectors, for a body
    /// whose block widths follow them.
    pub(crate) fn lanes(self) -> usize {
        match self.0 {
            Level::Baseline => 4,
            Level::Avx2 => 8,
            Level::Avx512 => 16,
        }
    }

    /// Runs `body` compiled for this instruction set.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        match self.0 {
            // SAFETY: an `Avx2` level is built only by `widest`, and by
            // `every_runnable` when `widest` is that wide, so only after the
            // CPU reported AVX2: the CPU runs every instruction of the
            // `avx2`-enabled copy.
            Level::Avx2 => return unsafe { avx2(body) },
            // SAFETY: an `Avx512` level is built only by `widest`, after
            // the CPU reported AVX2, AVX-512F, FMA and F16C, every feature
            // that `avx2,avx512f` enables, so the CPU runs every
            // instruction of that copy.
            Level::Avx512 => return unsafe { avx512(body) },
            Level::Baseline => {}
        }
        body()
    }
}

/// Runs `body` with AVX2 enabled. Bodies are `#[inline(always)]`, so each
/// is inlined here and vectorized for this function's target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Runs `body` with AVX2 and AVX-512F enabled, like [`avx2`] but sixteen
/// lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
impl Isa {
    /// Every copy this CPU can run, baseline first, so a test compares
    /// each of them, not only the widest: a CPU with AVX-512 still runs
    /// the AVX2 copy that CPUs without it select.
    pub(crate) fn every_runnable() -> Vec<Isa> {
        let widest = Isa::widest();
        if widest.0 != Level::Avx512 {
            eprintln!("this CPU runs up to {widest:?}: the wider copies go untested");
        }
        [Level::Baseline, Level::Avx2, Level::Avx512]
            .into_iter()
            .filter(|&level| level <= widest.0)
            .map(Isa)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_is_the_widest_copy_unless_the_build_pins_the_baseline() {
        let runnable = Isa::every_runnable();
        assert_eq!(runnable.first(), Some(&Isa::BASELINE));
        let want = if cfg!(adv_baseline_isa) {
            Isa::BASELINE
        } else {
            runnable[runnable.len() - 1]
        };
        assert_eq!(Isa::detected(), want);
    }
}
