#include "graph/ir.hh"

#include "common/logging.hh"

namespace tensorfhe::graph
{

const char *
nodeKindName(NodeKind k)
{
    switch (k) {
      case NodeKind::Input: return "Input";
      case NodeKind::Add: return "Add";
      case NodeKind::Sub: return "Sub";
      case NodeKind::AddPlain: return "AddPlain";
      case NodeKind::MulPlain: return "MulPlain";
      case NodeKind::MulConstToScale: return "MulConstToScale";
      case NodeKind::AddConst: return "AddConst";
      case NodeKind::Rescale: return "Rescale";
      case NodeKind::Multiply: return "Multiply";
      case NodeKind::RotateMany: return "RotateMany";
      case NodeKind::Drop: return "Drop";
      case NodeKind::SetScale: return "SetScale";
      case NodeKind::Unpack: return "Unpack";
      case NodeKind::Pack: return "Pack";
      case NodeKind::BsgsSum: return "BsgsSum";
      case NodeKind::LayerApply: return "LayerApply";
      case NodeKind::FusedEle: return "FusedEle";
      default: TFHE_ASSERT(false); return "?";
    }
}

} // namespace tensorfhe::graph
