#pragma once

#include "analysis/dataset.h"
#include "snap/codec.h"

/// Snapshot codec for the one stage core::Study persists: the §2.1
/// dataset, whole ("dataset") or cut at a chunk boundary
/// ("dataset.partial"). Every other stage rebuilds from the dataset and
/// the world in well under a second, so it has no codec. The store picks
/// the overload by the slot's static type, via ADL on snap::Writer/Reader,
/// which is why these stay in namespace cs::snap even though the file
/// lives in analysis/ — the include graph must point analysis -> snap,
/// never snap -> analysis (cslint G1).
///
/// The rows are written as they are, field by field. Decoding validates
/// as it goes — DNS names re-parse through dns::Name::from_labels, every
/// cloud-subdomain index and failed-lookup rcode is range-checked,
/// booleans must be canonical — and throws SnapshotError rather than
/// materialising nonsense.
///
/// Round-trip contract, pinned by snap_codec_test: for every value `a`,
/// encode(decode(encode(a))) produces the same bytes as encode(a).
namespace cs::snap {

void encode_artifact(Writer& w, const analysis::AlexaDataset& v);
void decode_artifact(Reader& r, analysis::AlexaDataset& v);

/// A chunked build's resume point: the rows of every domain before
/// `next_domain`. Decode rejects a resume point that disagrees with the
/// number of domains it holds.
void encode_artifact(Writer& w, const analysis::DatasetBuilder::Resume& v);
void decode_artifact(Reader& r, analysis::DatasetBuilder::Resume& v);

}  // namespace cs::snap
