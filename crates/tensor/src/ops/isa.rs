//! Runtime choice of the instruction set a kernel body is compiled for.
//!
//! The workspace builds for baseline x86-64, whose widest float lanes are
//! SSE2's four. [`Isa::run`] compiles the body it is given twice: inline
//! for the baseline, and inside an `avx2`-enabled function, where LLVM
//! vectorizes the same loops eight lanes wide. Which copy runs follows the
//! CPU, as reported by `is_x86_feature_detected!` (which caches its
//! answer); nothing else selects it.
//!
//! The two copies compute bit-identical results. The kernel loops keep
//! each output's sum in scalar order and vectorize only across outputs,
//! LLVM does not reassociate float arithmetic, and Rust never contracts
//! `a * b + c` into a fused multiply-add, so the wider lanes perform the
//! same roundings in the same order.
//!
//! A body is a closure marked `#[inline(always)]`, and so are the helpers
//! it calls: a helper left out of line is compiled once, for the baseline,
//! and the AVX2 copy would call it unchanged. On other architectures only
//! the baseline copy exists.
//!
//! A body that compiles is not yet a vectorized body. A loop whose element
//! work sits behind a data-dependent branch stays scalar in both copies:
//! in `math::exp`, selecting the special cases in the same loop as the
//! main path let LLVM sink the main path, table load included, behind the
//! special cases' branch, and the AVX2 copy came out scalar and slower
//! than libm (a `static` table did the same). The slice kernels in
//! `math` therefore compute the main path in one pass and select the
//! special cases in a second, and their table is a `const`. To check a
//! copy, disassemble the newest build of the library and count `ymm`
//! registers in the `isa::avx2` instance the kernel calls (here
//! `sigmoid_into`'s):
//!
//! ```text
//! cargo build --release -p adv-tensor
//! objdump -dr --no-show-raw-insn $(ls -t target/release/deps/libadv_tensor-*.rlib | head -1) > tensor.asm
//! grep -A60 '<_ZN10adv_tensor4math12sigmoid_into' tensor.asm | grep -om1 '_ZN10adv_tensor3ops3isa4avx2[0-9a-z]*E'
//! awk '$2 == "<SYMBOL>:" {p=1} p && /^$/ {exit} p' tensor.asm | grep -c ymm
//! ```
//!
//! with `SYMBOL` the name the third line printed. Zero means the copy is
//! scalar.

/// The instruction set a kernel body runs with: the baseline, or AVX2 when
/// the CPU has it. An AVX2 `Isa` comes only from [`Isa::detected`], which
/// is what makes [`Isa::run`] sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa {
    avx2: bool,
}

impl Isa {
    /// The widest instruction set this CPU supports.
    pub(crate) fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    /// Runs `body` compiled for this instruction set.
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        if self.avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx2` is true only in an `Isa` built by `detected`,
            // after the CPU reported AVX2, so the CPU runs every instruction
            // of the `avx2`-enabled copy.
            return unsafe { avx2(body) };
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

#[cfg(test)]
impl Isa {
    /// The build's baseline instruction set, which every CPU runs.
    pub(crate) const BASELINE: Isa = Isa { avx2: false };

    /// The detected instruction set when it is wider than the baseline.
    /// On a CPU without AVX2 there is no second copy to compare, so this
    /// says so and returns `None`.
    pub(crate) fn wider_than_baseline() -> Option<Isa> {
        let isa = Isa::detected();
        if isa == Isa::BASELINE {
            eprintln!("this CPU lacks AVX2: only the baseline copy can run, skipping");
            return None;
        }
        Some(isa)
    }
}
