#include "core/scratch.hpp"

namespace hhc::core {

ConstructionScratch& tls_construction_scratch() {
  thread_local ConstructionScratch scratch;
  return scratch;
}

}  // namespace hhc::core
