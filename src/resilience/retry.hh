/**
 * @file
 * Retry policy for the resilient graph executor. A node that raises
 * TransientFault (or IntegrityError on its own freshly produced
 * output — e.g. an at-rest flip caught by the boundary guard) can be
 * re-executed verbatim: the graph is SSA, its input values are still
 * live, and the kernels are deterministic, so a successful retry is
 * bit-identical to an uninterrupted run (tests/fault asserts this on
 * raw limbs).
 */

#ifndef TENSORFHE_RESILIENCE_RETRY_HH
#define TENSORFHE_RESILIENCE_RETRY_HH

namespace tensorfhe::resilience
{

struct RetryPolicy
{
    /** Total attempts per node (1 = fail fast, no retry). A retry
        runs at once, with no backoff. */
    int maxAttempts = 1;
};

} // namespace tensorfhe::resilience

#endif // TENSORFHE_RESILIENCE_RETRY_HH
