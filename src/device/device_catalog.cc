#include "src/device/device_catalog.h"

#include "src/util/check.h"

namespace mobisim {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kMagneticDisk:
      return "magnetic-disk";
    case DeviceKind::kFlashDisk:
      return "flash-disk";
    case DeviceKind::kFlashCard:
      return "flash-card";
    case DeviceKind::kNandSsd:
      return "nand-ssd";
  }
  MOBISIM_CHECK(false && "DeviceKindName: corrupt DeviceKind value");
}

DiskGeometry Cu140Geometry() {
  // 40-Mbyte 2.5-inch drive: ~980 cylinders x 4 heads x 56 sectors gives
  // ~107 MB raw; scale cylinders down to land near 40 MB formatted.
  DiskGeometry g;
  g.cylinders = 368;
  g.heads = 4;
  g.sectors_per_track = 56;
  g.rpm = 3600.0;
  g.seek_a_ms = 4.0;
  g.seek_b_ms = 1.0;
  g.seek_c_ms = 0.02;
  return g;
}

DiskGeometry KittyhawkGeometry() {
  // 20-Mbyte 1.3-inch drive: fewer, shorter tracks and slower positioning.
  DiskGeometry g;
  g.cylinders = 560;
  g.heads = 2;
  g.sectors_per_track = 36;
  g.rpm = 3200.0;
  g.seek_a_ms = 6.0;
  g.seek_b_ms = 1.6;
  g.seek_c_ms = 0.03;
  g.head_switch_ms = 1.5;
  return g;
}

DeviceSpec Cu140Datasheet() {
  DeviceSpec s;
  s.name = "cu140-datasheet";
  s.kind = DeviceKind::kMagneticDisk;
  s.read_overhead_ms = 25.7;   // Table 2: random-op overhead
  s.write_overhead_ms = 25.7;
  s.sequential_overhead_ms = 8.3;  // one rotation at 3600 rpm (estimate)
  s.read_kbps = 2125.0;
  s.write_kbps = 2125.0;
  s.spinup_ms = 1000.0;
  s.read_w = 1.75;
  s.write_w = 1.75;
  s.idle_w = 0.7;
  s.sleep_w = 0.0;
  s.spinup_w = 3.0;
  s.geometry = Cu140Geometry();
  return s;
}

DeviceSpec Cu140Measured() {
  // Table 1, uncompressed columns: 4-KB ops at 116/76 KB/s and sustained
  // 543/231 KB/s imply ~27/35 ms of per-op overhead under DOS.
  DeviceSpec s = Cu140Datasheet();
  s.name = "cu140-measured";
  s.read_overhead_ms = 27.1;
  s.write_overhead_ms = 35.3;
  s.read_kbps = 543.0;
  s.write_kbps = 231.0;
  return s;
}

DeviceSpec KittyhawkDatasheet() {
  DeviceSpec s;
  s.name = "kh-datasheet";
  s.kind = DeviceKind::kMagneticDisk;
  // 1.3-inch drive: slower access and transfer than the CU140, faster but
  // more power-hungry spin-up cycle relative to its size class.
  s.read_overhead_ms = 50.0;
  s.write_overhead_ms = 50.0;
  s.sequential_overhead_ms = 13.0;
  s.read_kbps = 900.0;
  s.write_kbps = 900.0;
  s.spinup_ms = 1500.0;
  s.read_w = 1.5;
  s.write_w = 1.5;
  s.idle_w = 0.75;
  s.sleep_w = 0.0;
  s.spinup_w = 2.5;
  s.geometry = KittyhawkGeometry();
  return s;
}

DeviceSpec Sdp10Datasheet() {
  DeviceSpec s;
  s.name = "sdp10-datasheet";
  s.kind = DeviceKind::kFlashDisk;
  s.read_overhead_ms = 1.5;  // Table 2
  s.write_overhead_ms = 1.5;
  s.sequential_overhead_ms = 1.5;
  s.read_kbps = 600.0;
  s.write_kbps = 50.0;  // erase coupled with write
  s.erase_segment_bytes = 512;
  s.read_w = 0.36;
  s.write_w = 0.36;
  s.erase_w = 0.36;
  s.idle_w = 0.005;
  s.sleep_w = 0.005;
  return s;
}

DeviceSpec Sdp10Measured() {
  // Table 1: 280/410 KB/s reads, 39/40 KB/s writes under DOS.
  DeviceSpec s = Sdp10Datasheet();
  s.name = "sdp10-measured";
  s.read_overhead_ms = 4.5;
  s.write_overhead_ms = 2.6;
  s.read_kbps = 410.0;
  s.write_kbps = 40.0;
  return s;
}

DeviceSpec Sdp5Datasheet() {
  DeviceSpec s;
  s.name = "sdp5-datasheet";
  s.kind = DeviceKind::kFlashDisk;
  s.read_overhead_ms = 0.7;
  s.write_overhead_ms = 1.0;
  s.sequential_overhead_ms = 0.7;
  s.read_kbps = 700.0;
  s.write_kbps = 75.0;  // coupled erase+write (section 2)
  s.erase_segment_bytes = 512;
  s.read_w = 0.36;
  s.write_w = 0.36;
  s.erase_w = 0.36;
  s.idle_w = 0.005;
  s.sleep_w = 0.005;
  return s;
}

DeviceSpec Sdp5aDatasheet() {
  // Section 5.3: erasure at 150 KB/s decoupled from writing; pre-erased
  // areas accept writes at 400 KB/s.
  DeviceSpec s = Sdp5Datasheet();
  s.name = "sdp5a-datasheet";
  s.erase_kbps = 150.0;
  s.pre_erased_write_kbps = 400.0;
  return s;
}

DeviceSpec IntelCardDatasheet() {
  DeviceSpec s;
  s.name = "intel-datasheet";
  s.kind = DeviceKind::kFlashCard;
  s.read_overhead_ms = 0.0;  // byte-addressed: no controller latency
  s.write_overhead_ms = 0.0;
  s.sequential_overhead_ms = 0.0;
  s.read_kbps = 9765.0;
  s.write_kbps = 214.0;  // into pre-erased memory
  s.erase_segment_bytes = 128 * 1024;
  s.erase_ms_per_segment = 1600.0;  // fixed, independent of segment fill
  s.endurance_cycles = 100000;
  s.read_w = 0.47;
  s.write_w = 0.47;
  s.erase_w = 0.47;
  s.idle_w = 0.0005;
  s.sleep_w = 0.0005;
  return s;
}

DeviceSpec IntelCardMeasured() {
  // Table 1, 4-KB file columns (MFFS 2.00 software overheads included):
  // 645 KB/s reads of uncompressible data, 43 KB/s writes.
  DeviceSpec s = IntelCardDatasheet();
  s.name = "intel-measured";
  s.read_overhead_ms = 0.5;
  s.write_overhead_ms = 1.0;
  s.sequential_overhead_ms = 0.5;
  s.read_kbps = 645.0;
  s.write_kbps = 43.0;
  // Cleaning copies bypass the MFFS software path and run at medium speed.
  s.internal_read_kbps = 9765.0;
  s.internal_write_kbps = 214.0;
  return s;
}

DeviceSpec IntelSeries2PlusDatasheet() {
  DeviceSpec s = IntelCardDatasheet();
  s.name = "intel-series2plus-datasheet";
  s.erase_ms_per_segment = 300.0;  // section 2: blocks erase in 300 ms
  s.endurance_cycles = 1000000;    // one million erasures per block
  return s;
}

DeviceSpec NandChip() {
  // One raw SLC NAND die: the degenerate topology (1 channel x 1 die x
  // 1 plane) that exposes the cell timings with no internal parallelism.
  // Cell timings are datasheet-class SLC numbers per Olivier et al.:
  // tR = 25 us, tPROG = 200 us, tBERS = 1.5 ms, 2-KB pages, 64-page blocks,
  // 40-MB/s channel bus.
  DeviceSpec s;
  s.name = "nand-chip";
  s.kind = DeviceKind::kNandSsd;
  s.read_overhead_ms = 0.02;   // controller command issue
  s.write_overhead_ms = 0.02;
  s.sequential_overhead_ms = 0.02;
  s.nand.channels = 1;
  s.nand.dies_per_channel = 1;
  s.nand.planes_per_die = 1;
  s.nand.page_bytes = 2048;
  s.nand.pages_per_block = 64;
  s.nand.read_page_us = 25.0;
  s.nand.program_page_us = 200.0;
  s.nand.erase_block_ms = 1.5;
  s.nand.channel_mbps = 40.0;
  s.erase_segment_bytes = s.nand.block_bytes();  // 128 KB
  s.erase_ms_per_segment = s.nand.erase_block_ms;
  s.endurance_cycles = 100000;
  // Host-visible single-unit streaming rates, derived from the cell timings
  // (page / (tR + transfer), page / (tPROG + transfer)); generic code paths
  // (DescribeConfig, spec sanity checks) read these, the NAND timing model
  // does not.
  s.read_kbps = 26900.0;
  s.write_kbps = 8000.0;
  s.read_w = 0.08;
  s.write_w = 0.12;
  s.erase_w = 0.11;
  s.idle_w = 0.01;
  s.sleep_w = 0.001;
  return s;
}

DeviceSpec NandSsd4ch() {
  // Small SSD: 4 channels x 2 dies, same SLC cell timings as the raw chip.
  // Striping across the 8 parallel units is what separates this preset from
  // nand-chip in the uFLIP parallelism pattern.
  DeviceSpec s = NandChip();
  s.name = "nand-ssd-4ch";
  s.nand.channels = 4;
  s.nand.dies_per_channel = 2;
  s.endurance_cycles = 10000;  // denser parts trade endurance for capacity
  s.idle_w = 0.03;             // controller + DRAM map
  return s;
}

DeviceSpec NandSsd8ch() {
  // Wider SSD: 8 channels x 2 dies = 16 parallel units.
  DeviceSpec s = NandSsd4ch();
  s.name = "nand-ssd-8ch";
  s.nand.channels = 8;
  s.idle_w = 0.04;
  return s;
}

MemorySpec NecDramSpec() {
  MemorySpec s;
  s.name = "nec-uPD4216160-dram";
  s.read_kbps = 25 * 1024.0;
  s.write_kbps = 25 * 1024.0;
  s.access_overhead_us = 0.0;
  s.active_w = 0.25;
  // Self-refresh: ~12 mW per Mbyte keeps the cache contents alive; this is
  // the term that makes large DRAM caches a net energy loss in section 5.4.
  s.idle_w_per_mbyte = 0.012;
  return s;
}

MemorySpec NecSramSpec() {
  MemorySpec s;
  s.name = "nec-uPD43256B-sram";
  s.read_kbps = 20 * 1024.0;
  s.write_kbps = 20 * 1024.0;
  s.access_overhead_us = 0.0;
  s.active_w = 0.15;
  // CMOS SRAM data retention is microwatts per chip; what costs energy is
  // the active traffic, not keeping the bits alive.
  s.idle_w_per_mbyte = 0.0005;
  return s;
}

std::vector<DeviceSpec> AllDeviceSpecs() {
  return {Cu140Measured(),      Cu140Datasheet(),    KittyhawkDatasheet(),
          Sdp10Measured(),      Sdp10Datasheet(),    Sdp5Datasheet(),
          Sdp5aDatasheet(),     IntelCardMeasured(), IntelCardDatasheet(),
          IntelSeries2PlusDatasheet(), NandChip(),   NandSsd4ch(),
          NandSsd8ch()};
}

}  // namespace mobisim
