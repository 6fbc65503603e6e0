//! What is left of the kernel-backend selection: two field-less
//! tokens with no effect. There is one portable backend; these names
//! stay only because the repository benchmark, which a change may not
//! edit, names them ([`Kernels`], `SortConfig::kernels`,
//! `SplitterOptions::kernels`, the fourth argument of
//! `plan_exchange_with`). They go with ROADMAP item 1.

/// No effect; the type of `SortConfig::kernels`. Stays only because
/// the repository benchmark names it; goes with ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelPolicy;

/// No effect: a token for the one portable kernel backend. Stays only
/// because the repository benchmark names it; goes with ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Kernels;

impl Kernels {
    /// The token.
    pub fn auto() -> Self {
        Kernels
    }

    /// The token, whatever the policy.
    pub fn for_policy(_: KernelPolicy) -> Self {
        Kernels
    }

    /// `"scalar"`: the one backend.
    pub fn backend_name(&self) -> &'static str {
        "scalar"
    }

    /// [`dhs_shm::radix_sort_u64`].
    pub fn radix_sort_u64(&self, data: &mut [u64]) {
        dhs_shm::radix_sort_u64(data)
    }
}
