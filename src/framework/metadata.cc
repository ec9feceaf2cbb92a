#include "src/framework/metadata.hh"

#include <set>

#include "src/common/log.hh"
#include "src/driver/mbuf.hh"

namespace pmill {

std::uint32_t
field_size(Field f)
{
    switch (f) {
      case Field::kMbufPtr: return 8;
      case Field::kNextPtr: return 8;
      case Field::kDataAddr: return 8;
      case Field::kLen: return 4;
      case Field::kTimestamp: return 8;
      case Field::kVlanTci: return 2;
      case Field::kRssHash: return 4;
      case Field::kPacketType: return 4;
      case Field::kPort: return 2;
      case Field::kL3Offset: return 2;
      case Field::kL4Offset: return 2;
      case Field::kPaint: return 1;
      case Field::kDstIpAnno: return 4;
      case Field::kAggregate: return 4;
      case Field::kParkTicket: return 4;
      case Field::kCount: break;
    }
    panic("bad field");
}

const char *
field_name(Field f)
{
    switch (f) {
      case Field::kMbufPtr: return "mbuf_ptr";
      case Field::kNextPtr: return "next_ptr";
      case Field::kDataAddr: return "data_addr";
      case Field::kLen: return "len";
      case Field::kTimestamp: return "timestamp";
      case Field::kVlanTci: return "vlan_tci";
      case Field::kRssHash: return "rss_hash";
      case Field::kPacketType: return "packet_type";
      case Field::kPort: return "port";
      case Field::kL3Offset: return "l3_offset";
      case Field::kL4Offset: return "l4_offset";
      case Field::kPaint: return "paint";
      case Field::kDstIpAnno: return "dst_ip_anno";
      case Field::kAggregate: return "aggregate";
      case Field::kParkTicket: return "park_ticket";
      case Field::kCount: break;
    }
    return "?";
}

std::uint32_t
MetadataLayout::lines_spanned(const std::vector<Field> &fields) const
{
    // Edge cases this must get right: an empty field list spans zero
    // lines (not one), and a value that straddles a line boundary —
    // or a hypothetical wide field covering three or more lines —
    // contributes every line in [first, last], not just the two ends.
    if (fields.empty())
        return 0;
    std::set<std::uint32_t> lines;
    for (Field f : fields) {
        const std::uint32_t off = offset_of(f);
        const std::uint32_t first = off / kCacheLineBytes;
        const std::uint32_t last =
            (off + field_size(f) - 1) / kCacheLineBytes;
        for (std::uint32_t line = first; line <= last; ++line)
            lines.insert(line);
    }
    return static_cast<std::uint32_t>(lines.size());
}

namespace {

void
place(MetadataLayout &l, Field f, std::uint16_t off)
{
    l.offset[static_cast<std::size_t>(f)] = off;
}

} // namespace

MetadataLayout
make_copying_layout()
{
    // Field order mirrors how Click's Packet class accreted members
    // over two decades: bookkeeping first, then buffer fields, then
    // the annotation area — hot fields end up on three lines.
    MetadataLayout l;
    l.name = "copying(FastClick Packet)";
    l.total_bytes = 192;
    // line 0: list/bookkeeping
    place(l, Field::kMbufPtr, 0);
    place(l, Field::kNextPtr, 8);
    place(l, Field::kPacketType, 16);
    place(l, Field::kPort, 20);
    place(l, Field::kVlanTci, 22);
    place(l, Field::kRssHash, 24);
    // line 1: buffer fields
    place(l, Field::kDataAddr, 64);
    place(l, Field::kLen, 72);
    place(l, Field::kL3Offset, 76);
    place(l, Field::kL4Offset, 78);
    // line 2: 48-B annotation area
    place(l, Field::kTimestamp, 128);
    place(l, Field::kPaint, 136);
    place(l, Field::kDstIpAnno, 140);
    place(l, Field::kAggregate, 144);
    place(l, Field::kParkTicket, 148);
    return l;
}

MetadataLayout
make_overlay_layout()
{
    // Offsets into the rte_mbuf struct itself (first two lines are
    // the DPDK metadata the PMD fills), with application annotations
    // in the 64-B area that follows the struct.
    MetadataLayout l;
    l.name = "overlaying(mbuf+anno)";
    l.total_bytes = kMbufStructBytes + kMbufAnnoBytes;
    place(l, Field::kDataAddr, offsetof(RteMbuf, buf_addr));
    place(l, Field::kPort, offsetof(RteMbuf, port));
    place(l, Field::kLen, offsetof(RteMbuf, pkt_len));
    place(l, Field::kVlanTci, offsetof(RteMbuf, vlan_tci));
    place(l, Field::kRssHash, offsetof(RteMbuf, rss_hash));
    place(l, Field::kPacketType, offsetof(RteMbuf, packet_type));
    place(l, Field::kTimestamp, offsetof(RteMbuf, timestamp));
    place(l, Field::kMbufPtr, offsetof(RteMbuf, pool_elem));
    // Annotation area after the struct:
    place(l, Field::kNextPtr, 128);
    place(l, Field::kL3Offset, 136);
    place(l, Field::kL4Offset, 138);
    place(l, Field::kPaint, 140);
    place(l, Field::kDstIpAnno, 144);
    place(l, Field::kAggregate, 148);
    place(l, Field::kParkTicket, 152);
    return l;
}

MetadataLayout
make_xchg_layout()
{
    // Only what the NF needs, hot-packed into a single cache line.
    MetadataLayout l;
    l.name = "xchange(custom 64B)";
    l.total_bytes = 64;
    place(l, Field::kDataAddr, 0);
    place(l, Field::kLen, 8);
    place(l, Field::kTimestamp, 12);
    place(l, Field::kL3Offset, 20);
    place(l, Field::kL4Offset, 22);
    place(l, Field::kNextPtr, 24);
    place(l, Field::kVlanTci, 32);
    place(l, Field::kRssHash, 34);
    place(l, Field::kPacketType, 38);
    place(l, Field::kPort, 42);
    place(l, Field::kPaint, 44);
    place(l, Field::kDstIpAnno, 45);
    place(l, Field::kAggregate, 49);
    place(l, Field::kMbufPtr, 53);  // unused by the model; kept valid
    place(l, Field::kParkTicket, 60);  // unused; alias of kMbufPtr tail
    return l;
}

MetadataLayout
make_parking_layout()
{
    // X-Change's hot line plus the payload-park ticket. The ticket
    // occupies bytes 60..63; that aliases the tail of the (unused)
    // kMbufPtr slot at 53 — one-line layouts never dereference the
    // mbuf pointer, so the overlap is deliberate and keeps the whole
    // object inside a single cache line.
    MetadataLayout l = make_xchg_layout();
    l.name = "parking(header-only 64B)";
    place(l, Field::kParkTicket, 60);
    return l;
}

} // namespace pmill
