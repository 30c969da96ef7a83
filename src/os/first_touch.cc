#include "os/first_touch.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rnuma
{

NodeId
FirstTouchPlacement::touch(Addr page, NodeId node)
{
    const NodeId home = homes[page];
    if (home != invalidNode)
        return home;
    homes.slot(page) = node;
    return node;
}

bool
FirstTouchPlacement::placed(Addr page) const
{
    return homes[page] != invalidNode;
}

NodeId
FirstTouchPlacement::homeOf(Addr page) const
{
    const NodeId home = homes[page];
    RNUMA_ASSERT(home != invalidNode, "page ", page, " has no home");
    return home;
}

std::size_t
FirstTouchPlacement::pageCount() const
{
    return homes.size() -
        std::count(homes.begin(), homes.end(), invalidNode);
}

std::size_t
FirstTouchPlacement::pagesAt(NodeId node) const
{
    return std::count(homes.begin(), homes.end(), node);
}

} // namespace rnuma
