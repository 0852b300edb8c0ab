#pragma once

#include "trace/trace.hpp"

namespace slm::obs {

/// Kept only because perfbench/, which is not edited together with the
/// library, spells this name; new code uses trace::TraceRecorder.
using BinaryTraceSink = trace::TraceRecorder;

}  // namespace slm::obs
