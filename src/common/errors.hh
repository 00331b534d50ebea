/**
 * @file
 * Typed error taxonomy for the resilient execution paths. The bare
 * requireArg/requireState helpers (logging.hh) report *what* failed;
 * these classes additionally carry *where* — a stable site string
 * (the FAULT_POINT / guard location, e.g. "exec/keyswitch-tail") and,
 * once a graph executor has caught and attributed the failure, the
 * graph node id. Recovery policy keys off the type:
 *
 *   - TransientFault: the operation may succeed if re-executed
 *     (device hiccup, failed allocation). The resilient executor
 *     retries the node at once; SSA inputs are still live, so a
 *     retried node is bit-identical to an uninterrupted run.
 *   - IntegrityError: a ciphertext failed validation (residue out of
 *     range, metadata drift, checksum mismatch). Retrying the
 *     producer can repair output corruption; corrupted *stored*
 *     values need a checkpoint resume.
 *   - BudgetError: the request itself cannot work (level ledger
 *     exhausted, bad parameters, prime pool dry). Never retried.
 *
 * TransientFault and IntegrityError derive from std::runtime_error;
 * BudgetError derives from std::invalid_argument (budget misuse is a
 * caller fault, and pre-taxonomy call sites threw exactly that, so
 * existing catch sites keep working).
 */

#ifndef TENSORFHE_COMMON_ERRORS_HH
#define TENSORFHE_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace tensorfhe
{

/** Node id carried by errors raised outside any graph node. */
inline constexpr std::size_t kNoErrorNode = static_cast<std::size_t>(-1);

/**
 * Mixin carrying the failure site and (optionally) the graph node the
 * failure was attributed to. Catch handlers can read these without
 * parsing what().
 */
class ErrorContext
{
  public:
    ErrorContext(std::string site, std::size_t node)
        : site_(std::move(site)), node_(node)
    {}

    const std::string &site() const { return site_; }
    std::size_t node() const { return node_; }
    bool hasNode() const { return node_ != kNoErrorNode; }

  private:
    std::string site_;
    std::size_t node_;
};

namespace detail
{

inline std::string
formatError(const char *kind, const std::string &site,
            const std::string &msg, std::size_t node)
{
    std::string out = strCat(kind, " at ", site);
    if (node != kNoErrorNode)
        out += strCat(" (node ", node, ")");
    out += strCat(": ", msg);
    return out;
}

} // namespace detail

/** Re-executable failure: device hiccup, alloc failure, injected
    transient kernel fault. The resilient executor retries these. */
class TransientFault : public std::runtime_error, public ErrorContext
{
  public:
    TransientFault(std::string site, std::string msg,
                   std::size_t node = kNoErrorNode)
        : std::runtime_error(
              detail::formatError("transient fault", site, msg, node)),
          ErrorContext(std::move(site), node), msg_(std::move(msg))
    {}

    /** Undecorated message (for re-attribution to a node). */
    const std::string &message() const { return msg_; }

  private:
    std::string msg_;
};

/** Ciphertext validation failure: residue out of range, metadata
    drift against the compiled ValueMeta, or checksum mismatch. */
class IntegrityError : public std::runtime_error, public ErrorContext
{
  public:
    IntegrityError(std::string site, std::string msg,
                   std::size_t node = kNoErrorNode)
        : std::runtime_error(
              detail::formatError("integrity error", site, msg, node)),
          ErrorContext(std::move(site), node), msg_(std::move(msg))
    {}

    const std::string &message() const { return msg_; }

  private:
    std::string msg_;
};

/** Non-retryable request failure: exhausted level/scale budget, bad
    parameters, dry prime pool. */
class BudgetError : public std::invalid_argument, public ErrorContext
{
  public:
    BudgetError(std::string site, std::string msg,
                std::size_t node = kNoErrorNode)
        : std::invalid_argument(
              detail::formatError("budget error", site, msg, node)),
          ErrorContext(std::move(site), node), msg_(std::move(msg))
    {}

    const std::string &message() const { return msg_; }

  private:
    std::string msg_;
};

/** requireArg sibling that throws BudgetError with site context. */
template <typename... Args>
void
requireBudget(bool cond, const char *site, Args &&...args)
{
    if (!cond)
        throw BudgetError(site, strCat(std::forward<Args>(args)...));
}

} // namespace tensorfhe

#endif // TENSORFHE_COMMON_ERRORS_HH
