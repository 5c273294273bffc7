/**
 * @file
 * Compiled, allocation-free batched inference for the Random Forest.
 *
 * The interpreted ensemble walks per-tree `Node` structs with embedded
 * leaf vectors and returns a freshly allocated vector per tree per
 * call — fine for training-time OOB accounting, far too heavy for the
 * predict→plan hot path, which evaluates the WAN Prediction Model once
 * per DC pair, per AIMD epoch, per trial (Sections 3.3, 4.1.1: runtime
 * gauging must stay cheap). CompiledForest flattens every tree into
 * contiguous packed arrays — one 16-byte record per node (threshold +
 * both child references, each carrying the child's feature index),
 * plus side arrays for leaf-value offsets into one pooled leaf array —
 * so a prediction is a pure pointer-free array walk: zero allocations,
 * no per-node indirection, cache-friendly, and branch-free on the
 * random 50/50 splits that defeat branch prediction.
 *
 * The packed arrays live in an append-only list of immutable chunks,
 * each holding a contiguous run of trees in ensemble order. Extending
 * a compiled forest by the trees a warm start grew compiles those
 * trees into one new chunk and shares every prefix chunk with the
 * forest it extends, so a retrain's compile costs its new trees, not
 * the whole ensemble.
 *
 * predictInto() evaluates one feature row; predictBatch() evaluates a
 * row-major matrix of rows, optionally chunked across the process-wide
 * ThreadPool. Every row writes a fixed output slot, so the parallel
 * batch is bit-identical to the sequential one, and both are
 * bit-identical to the interpreted reference path
 * (RandomForestRegressor::predict): trees are accumulated in the same
 * order with the same arithmetic, chunk after chunk, with one divide
 * at the end.
 */

#ifndef WANIFY_ML_COMPILED_FOREST_HH
#define WANIFY_ML_COMPILED_FOREST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ml/decision_tree.hh"

namespace wanify {
namespace ml {

class CompiledForest
{
  public:
    /** The packed arrays of a run of trees (defined privately). */
    struct Chunk;

    /** An empty compiled forest; predictions panic. */
    CompiledForest() = default;

    /**
     * Flatten @p trees (all fitted, same feature/output shape) into
     * one chunk. The compiled forest is an immutable snapshot.
     */
    explicit CompiledForest(const std::vector<SharedTree> &trees);

    /**
     * Extend @p prefix: share its chunks and compile the trees of
     * @p trees past prefix.treeCount() into one new chunk (none when
     * there are no new trees). @p prefix must have been compiled from
     * the leading trees of @p trees.
     */
    CompiledForest(const CompiledForest &prefix,
                   const std::vector<SharedTree> &trees);

    bool empty() const { return treeCount_ == 0; }
    std::size_t treeCount() const { return treeCount_; }
    std::size_t featureCount() const { return featureCount_; }
    std::size_t outputCount() const { return outputCount_; }

    /** The chunks in tree order; forests extended from this one
     *  hold the same pointers. */
    const std::vector<std::shared_ptr<const Chunk>> &chunks() const
    {
        return chunks_;
    }

    /**
     * Ensemble-mean prediction of one feature row. @p x must hold
     * featureCount() values and @p out outputCount() slots; @p out is
     * overwritten. Allocation-free and safe to call concurrently.
     */
    void predictInto(const double *x, double *out) const;

    /**
     * Predict @p rows feature rows from the row-major matrix @p X
     * (rows x featureCount()) into the row-major @p Y (rows x
     * outputCount()). With @p parallel the rows are chunked across the
     * process-wide ThreadPool; each row writes only its own output
     * slot, so the result is bit-identical to the sequential path.
     */
    void predictBatch(const double *X, std::size_t rows, double *Y,
                      bool parallel = true) const;

  private:
    /** Tree-major evaluation of rows [begin, end) into Y. */
    void predictRange(const double *X, std::size_t begin,
                      std::size_t end, double *Y) const;

    std::vector<std::shared_ptr<const Chunk>> chunks_;

    /** Child-reference packing: ref = (idx << featShift_) | feature. */
    std::uint32_t featShift_ = 0;
    std::uint32_t featMask_ = 0;

    std::size_t treeCount_ = 0;
    std::size_t featureCount_ = 0;
    std::size_t outputCount_ = 0;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_COMPILED_FOREST_HH
