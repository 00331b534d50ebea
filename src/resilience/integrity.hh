/**
 * @file
 * Ciphertext integrity guards: the detection half of the fault story
 * (src/fault injects, these catch).
 *
 * validateCt() is the structural check — every residue limb must be
 * < its prime q_i, c0/c1 must agree on shape/domain, the scale must
 * be a positive finite double — and it returns a per-chunk FNV-1a
 * checksum computed in the SAME pass over the limbs, so paranoid
 * callers pay one memory sweep for both. A residue >= q_i is exactly
 * what a high-bit memory flip produces; a low-bit flip keeps the
 * residue in range and only the checksum can see it.
 *
 * The graph executor (graph/executor.hh) wires these in at node
 * boundaries: in every mode, every produced value is checked against
 * its compiled ValueMeta (checkCtMeta: level count and scale were
 * propagated at compile time with the evaluators' exact arithmetic);
 * paranoid mode also validates and checksums it, and re-checksums
 * every consumed value against the stored digest. Detected
 * corruption raises IntegrityError with the site and node attached
 * — never a silently wrong logit.
 */

#ifndef TENSORFHE_RESILIENCE_INTEGRITY_HH
#define TENSORFHE_RESILIENCE_INTEGRITY_HH

#include "ckks/ciphertext.hh"
#include "common/errors.hh"

namespace tensorfhe::resilience
{

/**
 * Structural validation + checksum in one pass over the limbs.
 * @throws IntegrityError (with `site`/`node`) on any violation.
 * @returns the chunk checksum (see ctChecksum).
 */
u64 validateCt(const ckks::Ciphertext &ct, const char *site,
               std::size_t node = kNoErrorNode);

/** Checksum only — no validation (checkpoint digests use this). */
u64 ctChecksum(const ckks::Ciphertext &ct);

/**
 * Check a ciphertext against its compiled metadata: exact level
 * count, scale within the evaluators' 1e-6 relative tolerance.
 * @throws IntegrityError on drift.
 */
void checkCtMeta(const ckks::Ciphertext &ct, std::size_t level_count,
                 double scale, const char *site,
                 std::size_t node = kNoErrorNode);

} // namespace tensorfhe::resilience

#endif // TENSORFHE_RESILIENCE_INTEGRITY_HH
