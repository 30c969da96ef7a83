/**
 * @file
 * First-touch page placement (Marchetti et al., as adopted in
 * Section 2.1 of the paper): upon the first request for each page at
 * the start of the parallel phase, the page's home becomes the
 * requesting node, on the assumption that the first requester will be
 * a frequent requester.
 */

#ifndef RNUMA_OS_FIRST_TOUCH_HH
#define RNUMA_OS_FIRST_TOUCH_HH

#include "common/page_indexed.hh"
#include "common/types.hh"
#include "proto/protocol.hh"

namespace rnuma
{

/**
 * First-touch home assignment. Homes are a page-indexed table
 * (invalidNode = not yet placed), probed on every reference.
 */
class FirstTouchPlacement : public Placement
{
  public:
    /**
     * Record a touch of @p page by @p node; the first toucher becomes
     * the home. Returns the (possibly pre-existing) home.
     */
    NodeId touch(Addr page, NodeId node);

    /** True once the page has a home. */
    bool placed(Addr page) const;

    NodeId homeOf(Addr page) const override;

    /** Number of placed pages. */
    std::size_t pageCount() const;

    /** Pages homed at @p node. */
    std::size_t pagesAt(NodeId node) const;

  private:
    PageIndexed<NodeId> homes{invalidNode};
};

} // namespace rnuma

#endif // RNUMA_OS_FIRST_TOUCH_HH
