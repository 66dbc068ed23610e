#pragma once

#include <string>
#include <vector>

#include "core/study.h"

/// Renderers that turn analysis results into the paper's tables and
/// figure series (fixed-width text). One function per table/figure keeps
/// bench binaries tiny and the output uniform.
namespace cs::core {

std::string render_table1(const analysis::CaptureReport& report);
std::string render_table2(const analysis::CaptureReport& report);
std::string render_table3(const analysis::CloudUsageReport& report);
std::string render_table4(const analysis::CloudUsageReport& report);
std::string render_table5(const analysis::CaptureReport& report);
std::string render_table6(const analysis::CaptureReport& report);
std::string render_table7(const analysis::PatternReport& report);
std::string render_table8(Study& study);
std::string render_table9(const analysis::RegionReport& report);
std::string render_table10(Study& study);

/// Table 11 is its own experiment: RTTs from a micro instance in one
/// us-east-1 zone to instances of several types in each zone.
std::string render_table11(Study& study);

std::string render_table12(const analysis::ZoneStudy& study);
std::string render_table13(const analysis::ZoneStudy& study);
std::string render_table14(const analysis::ZoneStudy& study);
std::string render_table15(Study& study);
std::string render_table16(const analysis::IspStudy& study);

std::string render_fig3(const analysis::CaptureReport& report);
std::string render_fig4(const analysis::PatternReport& report);
std::string render_fig5(const analysis::PatternReport& report);
std::string render_fig6(const analysis::RegionReport& report);
std::string render_fig7(Study& study);
std::string render_fig8(const analysis::ZoneStudy& study);
std::string render_fig9_10(const analysis::ClientRegionAverages& averages);
std::string render_fig11(const analysis::FlappingSeries& series);
std::string render_fig12(const std::vector<analysis::KRegionResult>& results);

/// One rendered paper artifact and the file name it is written to.
struct PaperArtifact {
  std::string file;
  std::string text;
};

/// Every table (1-16) and figure (3-12) of the paper, rendered from one
/// study in a fixed order. The order is part of the output: rendering
/// builds stages on demand, and several stages and renderers launch
/// instances, so another order would shift later address allocations.
/// paper_reproduction writes exactly this list; the golden test digests
/// it.
std::vector<PaperArtifact> render_paper(Study& study);

/// Data-quality appendix: how much raw signal the study lost to drops,
/// retries, truncation, dead vantage rounds, and unresolved names — fed
/// by the dataset/campaign ledgers plus the obs fault counters. Under an
/// active cs::fault plan this is the proof the pipeline degraded
/// gracefully instead of corrupting its aggregates.
std::string render_data_quality(Study& study);

}  // namespace cs::core
