#pragma once

#include "core/pipeline.hpp"
#include "model/model.hpp"

namespace cwgl::model {

/// Assembles a serving snapshot from one pipeline run.
///
/// `result` must come from `CharacterizationPipeline::run(trace, pool,
/// &fitted)` with the SAME `fitted` passed here — the feature vectors, the
/// clustering labels, and the job names must describe the same analysis set
/// in the same order. `config` supplies the kernel settings the dictionary
/// was built under.
///
/// Every analyzed job becomes a representative of its cluster, carrying
/// its shape's feature vector (`fitted` holds one per distinct shape), with
/// the group medoid remapped to a within-cluster index. Validates the
/// assembled model before returning (throws ModelError), so a snapshot
/// produced here always round-trips through save/load.
FittedModel build_model(const core::PipelineResult& result,
                        core::FittedFeatures fitted,
                        const core::PipelineConfig& config);

/// Assembles a serving snapshot from a FULL-TRACE run
/// (`CharacterizationPipeline::run_full(trace, pool, &fitted)` with the
/// SAME `fitted`). One representative per distinct shape of the whole
/// eligible workload, carrying its multiplicity; training indices are shape
/// ids (dense, unique). Group medoids are already shape ids, so the
/// within-cluster remap is direct. Validates before returning (throws
/// ModelError).
FittedModel build_model_full(const core::FullTraceResult& result,
                             core::FittedFeatures fitted,
                             const core::PipelineConfig& config);

}  // namespace cwgl::model
