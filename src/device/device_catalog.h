// Catalog of the devices the paper evaluates.
//
// "Measured" specs are derived from the OmniBook micro-benchmarks the paper
// reports in Table 1 (4-Kbyte operation rate gives the per-op overhead,
// 1-Mbyte file rate gives the sustained bandwidth); "datasheet" specs are
// Table 2 verbatim.  Fields the paper does not state (disk standby power,
// DRAM refresh power, ...) carry documented engineering estimates; see
// DESIGN.md section 6.
#ifndef MOBISIM_SRC_DEVICE_DEVICE_CATALOG_H_
#define MOBISIM_SRC_DEVICE_DEVICE_CATALOG_H_

#include <vector>

#include "src/device/device_spec.h"

namespace mobisim {

// Geometry presets sized to the paper's drives; the CU140 and Kittyhawk
// specs carry them for their geometry timing.
DiskGeometry Cu140Geometry();
DiskGeometry KittyhawkGeometry();

// Western Digital Caviar Ultralite CU140 40-Mbyte PCMCIA Type III disk.
DeviceSpec Cu140Measured();
DeviceSpec Cu140Datasheet();
// Hewlett-Packard Kittyhawk 20-Mbyte 1.3-inch disk.
DeviceSpec KittyhawkDatasheet();
// SunDisk SDP10 10-Mbyte 12-V flash disk (HP F1013A).
DeviceSpec Sdp10Measured();
DeviceSpec Sdp10Datasheet();
// SunDisk SDP5 5-V flash disk (newer part, datasheet numbers).
DeviceSpec Sdp5Datasheet();
// SunDisk SDP5A: SDP5 with decoupled (asynchronous) erasure support.
DeviceSpec Sdp5aDatasheet();
// Intel Series 2 flash memory card under MFFS 2.00 (measured) and raw
// (datasheet).
DeviceSpec IntelCardMeasured();
DeviceSpec IntelCardDatasheet();
// Intel 16-Mbit Series 2+ card: 300-ms block erases and 10^6-cycle
// endurance (section 2 mentions these as the newer parts the authors could
// not yet obtain).
DeviceSpec IntelSeries2PlusDatasheet();
// Modern parameterized NAND (DeviceKind::kNandSsd; Olivier et al. model).
// One raw SLC die with no internal parallelism...
DeviceSpec NandChip();
// ...and two SSD-class topologies built from the same cell timings.
DeviceSpec NandSsd4ch();   // 4 channels x 2 dies
DeviceSpec NandSsd8ch();   // 8 channels x 2 dies

// NEC uPD4216160 16-Mbit DRAM (buffer cache).
MemorySpec NecDramSpec();
// NEC uPD43256B 32Kx8 55-ns SRAM (battery-backed write buffer).
MemorySpec NecSramSpec();

// All storage device specs, for sweep-style tests and benches.
std::vector<DeviceSpec> AllDeviceSpecs();

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_DEVICE_CATALOG_H_
