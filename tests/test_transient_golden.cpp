// Cross-version goldens of the transient engine's complete output.
//
// Every circuit below is run through sim::run_transient and digested: the
// step and factorization counts, the buffer fire times as hex floats, and a
// 64-bit FNV-1a hash of the exact bit patterns of the time grid and of every
// node column (in node-name order). The batched entry point
// sim::run_batched_crossings is recorded too, as hex-float crossings at lane
// widths 1, 4 and 8, together with the SolverReuse counts each run leaves
// behind.
//
// The cases cover each engine feature: trapezoidal and backward-Euler
// stepping, BE damping after breakpoints (and its absence), pulse/PWL/
// current-source breakpoints, mutual inductance, cross-run symbolic reuse,
// buffer events (including ramped outputs and simultaneous cluster firing on
// a symmetric bus) and the auto-extended horizon of a lane that does not
// cross in the shared window. Any change to a single result bit or count
// fails here; on a length mismatch the failure prints the whole listing.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "repbus/bus_chain.h"
#include "sim/builders.h"
#include "sim/transient.h"
#include "sim/transient_batch.h"
#include "tline/coupled_bus.h"

namespace {

using namespace rlcsim;
using namespace rlcsim::sim;

const char* const kGolden = R"golden(case rc_trapezoidal
steps 4000
lu 2
time 4001 bbda62008ba73133
node in 4001 3026b0962cda0ce3
node out 4001 498150a3bc33396e
case rlc_backward_euler
steps 1000
lu 1
time 1001 7f74f473bcea19aa
node a 1001 2e9fce936515f85e
node b 1001 22abbf549774de03
node in 1001 dfcd8f2ddfbf39f8
case rlc_no_be_damping
steps 1000
lu 1
time 1001 7f74f473bcea19aa
node a 1001 b9856cc03b85055e
node b 1001 5eb987119f25fa78
node in 1001 dfcd8f2ddfbf39f8
case pulse_pwl_current_ladder
steps 600
lu 2
time 601 721df20f27f03127
node aux 601 97b1e5a4763eda92
node drv 601 873c08644fe3ab6d
node in 601 121d2354c5493b0a
node line.0.m 601 eec3f1b41843dabe
node line.1.m 601 556e80755d741730
node line.2.m 601 8207d9e19649ea0b
node line.3.m 601 268b780eb09313df
node line.4.m 601 500dd450ba4f9eab
node line.5.m 601 25822fa61721da0a
node line.6.m 601 7e79a9104898c471
node line.7.m 601 594cba8fcb11b834
node line.n0 601 de07a2202c437a14
node line.n1 601 1a154364822212d0
node line.n2 601 278f30d0e1bd3774
node line.n3 601 ec8f911b05aaadd5
node line.n4 601 5c21d07d03745059
node line.n5 601 32390804476cd948
node line.n6 601 c3d0595b084fa05d
node out 601 d2d62f46c3c26802
case bus_no_reuse
steps 750
lu 2
time 751 9ad72dac71009f66
node bus.l0.0.m 751 ed6d83298f712b49
node bus.l0.1.m 751 a7c38033f7bbbff8
node bus.l0.2.m 751 93ffeb3166344c07
node bus.l0.3.m 751 de0aa4e3e15d0725
node bus.l0.4.m 751 c20421a26f3c5a38
node bus.l0.5.m 751 3eee00cf39a3f84b
node bus.l0.n0 751 caf2ca7aa566647e
node bus.l0.n1 751 694a12a31559f334
node bus.l0.n2 751 e703192cd5e4c414
node bus.l0.n3 751 de21dcdbea16ae05
node bus.l0.n4 751 2e52cba824d759fb
node bus.l1.0.m 751 c509e02ee791d1ab
node bus.l1.1.m 751 8c72e7957ed533db
node bus.l1.2.m 751 adc88e45494951bd
node bus.l1.3.m 751 604e30ca2a4c45c2
node bus.l1.4.m 751 a301eff31e910d2d
node bus.l1.5.m 751 e34884bb8b750c41
node bus.l1.n0 751 b2caa85ed5a079ee
node bus.l1.n1 751 31885e69108847cf
node bus.l1.n2 751 0e67d0d6091b024f
node bus.l1.n3 751 a798c1c3007b2d01
node bus.l1.n4 751 29a534540ecd35d0
node bus.l2.0.m 751 0c2687b58122fcfe
node bus.l2.1.m 751 d79b4f21109c5da7
node bus.l2.2.m 751 fd26a889d46bf271
node bus.l2.3.m 751 dc51c299c97697a9
node bus.l2.4.m 751 2ed1c8110d1631ba
node bus.l2.5.m 751 79f91e26e50c30a9
node bus.l2.n0 751 018cc61209e9bb61
node bus.l2.n1 751 ae6c33bbe3747a8a
node bus.l2.n2 751 10e5750b9c46552b
node bus.l2.n3 751 fa9aa3c2eb35ae99
node bus.l2.n4 751 4de2981c96c9116d
node line0.drv 751 60e4cf89c36cc4b7
node line0.in 751 e8507e70fe210c25
node line0.out 751 153de629bf1ad8ee
node line1.drv 751 4fd7a9fb7d54f7c7
node line1.in 751 5e7368046c431b23
node line1.out 751 b9ffee2b45352810
node line2.drv 751 8cac24a8306efacb
node line2.in 751 5fa991303d69eddb
node line2.out 751 29cddc16312be082
case bus_seeding_reuse
steps 750
lu 2
time 751 9ad72dac71009f66
node bus.l0.0.m 751 ed6d83298f712b49
node bus.l0.1.m 751 a7c38033f7bbbff8
node bus.l0.2.m 751 93ffeb3166344c07
node bus.l0.3.m 751 de0aa4e3e15d0725
node bus.l0.4.m 751 c20421a26f3c5a38
node bus.l0.5.m 751 3eee00cf39a3f84b
node bus.l0.n0 751 caf2ca7aa566647e
node bus.l0.n1 751 694a12a31559f334
node bus.l0.n2 751 e703192cd5e4c414
node bus.l0.n3 751 de21dcdbea16ae05
node bus.l0.n4 751 2e52cba824d759fb
node bus.l1.0.m 751 c509e02ee791d1ab
node bus.l1.1.m 751 8c72e7957ed533db
node bus.l1.2.m 751 adc88e45494951bd
node bus.l1.3.m 751 604e30ca2a4c45c2
node bus.l1.4.m 751 a301eff31e910d2d
node bus.l1.5.m 751 e34884bb8b750c41
node bus.l1.n0 751 b2caa85ed5a079ee
node bus.l1.n1 751 31885e69108847cf
node bus.l1.n2 751 0e67d0d6091b024f
node bus.l1.n3 751 a798c1c3007b2d01
node bus.l1.n4 751 29a534540ecd35d0
node bus.l2.0.m 751 0c2687b58122fcfe
node bus.l2.1.m 751 d79b4f21109c5da7
node bus.l2.2.m 751 fd26a889d46bf271
node bus.l2.3.m 751 dc51c299c97697a9
node bus.l2.4.m 751 2ed1c8110d1631ba
node bus.l2.5.m 751 79f91e26e50c30a9
node bus.l2.n0 751 018cc61209e9bb61
node bus.l2.n1 751 ae6c33bbe3747a8a
node bus.l2.n2 751 10e5750b9c46552b
node bus.l2.n3 751 fa9aa3c2eb35ae99
node bus.l2.n4 751 4de2981c96c9116d
node line0.drv 751 60e4cf89c36cc4b7
node line0.in 751 e8507e70fe210c25
node line0.out 751 153de629bf1ad8ee
node line1.drv 751 4fd7a9fb7d54f7c7
node line1.in 751 5e7368046c431b23
node line1.out 751 b9ffee2b45352810
node line2.drv 751 8cac24a8306efacb
node line2.in 751 5fa991303d69eddb
node line2.out 751 29cddc16312be082
reuse hits 0 symbolic 2 ejected 0
case bus_replaying_reuse
steps 750
lu 2
time 751 9ad72dac71009f66
node bus.l0.0.m 751 ed6d83298f712b49
node bus.l0.1.m 751 a7c38033f7bbbff8
node bus.l0.2.m 751 93ffeb3166344c07
node bus.l0.3.m 751 de0aa4e3e15d0725
node bus.l0.4.m 751 c20421a26f3c5a38
node bus.l0.5.m 751 3eee00cf39a3f84b
node bus.l0.n0 751 caf2ca7aa566647e
node bus.l0.n1 751 694a12a31559f334
node bus.l0.n2 751 e703192cd5e4c414
node bus.l0.n3 751 de21dcdbea16ae05
node bus.l0.n4 751 2e52cba824d759fb
node bus.l1.0.m 751 c509e02ee791d1ab
node bus.l1.1.m 751 8c72e7957ed533db
node bus.l1.2.m 751 adc88e45494951bd
node bus.l1.3.m 751 604e30ca2a4c45c2
node bus.l1.4.m 751 a301eff31e910d2d
node bus.l1.5.m 751 e34884bb8b750c41
node bus.l1.n0 751 b2caa85ed5a079ee
node bus.l1.n1 751 31885e69108847cf
node bus.l1.n2 751 0e67d0d6091b024f
node bus.l1.n3 751 a798c1c3007b2d01
node bus.l1.n4 751 29a534540ecd35d0
node bus.l2.0.m 751 0c2687b58122fcfe
node bus.l2.1.m 751 d79b4f21109c5da7
node bus.l2.2.m 751 fd26a889d46bf271
node bus.l2.3.m 751 dc51c299c97697a9
node bus.l2.4.m 751 2ed1c8110d1631ba
node bus.l2.5.m 751 79f91e26e50c30a9
node bus.l2.n0 751 018cc61209e9bb61
node bus.l2.n1 751 ae6c33bbe3747a8a
node bus.l2.n2 751 10e5750b9c46552b
node bus.l2.n3 751 fa9aa3c2eb35ae99
node bus.l2.n4 751 4de2981c96c9116d
node line0.drv 751 60e4cf89c36cc4b7
node line0.in 751 e8507e70fe210c25
node line0.out 751 153de629bf1ad8ee
node line1.drv 751 4fd7a9fb7d54f7c7
node line1.in 751 5e7368046c431b23
node line1.out 751 b9ffee2b45352810
node line2.drv 751 8cac24a8306efacb
node line2.in 751 5fa991303d69eddb
node line2.out 751 29cddc16312be082
reuse hits 1 symbolic 2 ejected 0
case repeater_chain
steps 4002
lu 4
time 4003 ce0e8b84888d5e2b
node stage1.0.m 4003 42d203e7b725c2db
node stage1.1.m 4003 b63fcb398a68e680
node stage1.2.m 4003 ec43eea3d6560b72
node stage1.3.m 4003 730529543007c838
node stage1.4.m 4003 268781a965c1a023
node stage1.5.m 4003 09d1aa63f11abce4
node stage1.drv 4003 29d9e559c5a7da71
node stage1.n0 4003 22683df7d2e2148a
node stage1.n1 4003 302db5278f3d8fdc
node stage1.n2 4003 00e1df8738210a80
node stage1.n3 4003 267344c73cf8e6cc
node stage1.n4 4003 7fae8891869fe8e2
node stage1.out 4003 5308b47077946d09
node stage2.0.m 4003 f74d0c2c87e075b3
node stage2.1.m 4003 c3a3cef637eca453
node stage2.2.m 4003 37e2e3f8456d5a00
node stage2.3.m 4003 71dc367c1f25f9b9
node stage2.4.m 4003 34659abddb4928e3
node stage2.5.m 4003 d8f369705663bac0
node stage2.drv 4003 b835d12bc3af38f8
node stage2.n0 4003 fa872cb7f6b4cb6b
node stage2.n1 4003 4948cc51177c4364
node stage2.n2 4003 da702af496e2d1e4
node stage2.n3 4003 b1e973738113cbb5
node stage2.n4 4003 94e656ae39aedf3c
node stage2.out 4003 92e1996e19e7b0b5
node stage3.0.m 4003 12c1e1e0f7314639
node stage3.1.m 4003 9ab1a85d682bca67
node stage3.2.m 4003 a3b6da68db10ec9d
node stage3.3.m 4003 18220606fe34b802
node stage3.4.m 4003 853611f34a49b0d8
node stage3.5.m 4003 79c13371a65368c0
node stage3.drv 4003 a5fa0c9963637600
node stage3.n0 4003 c193aa18f2605d35
node stage3.n1 4003 1afb158f0b34493b
node stage3.n2 4003 b252232e940c60cf
node stage3.n3 4003 0a9b3343d2ba19e0
node stage3.n4 4003 0b4dfd977c975ad4
node stage3.out 4003 d717c49a573af905
node vin 4003 869b4461e4e58c83
fire 0x1.a405f6bd4dbfdp-34
fire 0x1.a405f6bd4dbf9p-33
case ramped_repeater_chain
steps 4002
lu 6
time 4003 8636a0df2a2ee684
node in 4003 869b4461e4e58c83
node stage1.0.m 4003 a378c0e2f95971cc
node stage1.1.m 4003 76f1d1a9dcd641a8
node stage1.2.m 4003 02d790a984d5cb23
node stage1.3.m 4003 31872a1917ac9da7
node stage1.4.m 4003 e1dfed37c96a22da
node stage1.5.m 4003 3e512f9adb90365e
node stage1.drv 4003 cbb47d4d0d6a984a
node stage1.n0 4003 3c6f82aea000cfb6
node stage1.n1 4003 7f96fc4b82818ab0
node stage1.n2 4003 6a0ae2eab53a4a86
node stage1.n3 4003 f3ba471a59341631
node stage1.n4 4003 e0bb45760ca9cdc2
node stage1.out 4003 af1ce98bf8230571
node stage2.0.m 4003 9ace0a1c68a23594
node stage2.1.m 4003 8aaf8930a262a278
node stage2.2.m 4003 35aee05645003809
node stage2.3.m 4003 b27efd9b57d736fc
node stage2.4.m 4003 909c9288e51a2062
node stage2.5.m 4003 41720f897505615d
node stage2.drv 4003 24cee78c10a700cd
node stage2.n0 4003 77dce97f0502fabb
node stage2.n1 4003 2287e3e7df8b1115
node stage2.n2 4003 3dd597cc19007efa
node stage2.n3 4003 14e3433dbfa93467
node stage2.n4 4003 2cb63e86cf665035
node stage2.out 4003 e4465baa1d4f7424
node stage3.0.m 4003 5449fa8f2965af87
node stage3.1.m 4003 42d8f8eb5cc875db
node stage3.2.m 4003 cac08fb657701a3f
node stage3.3.m 4003 d97efbe4645a417b
node stage3.4.m 4003 0a8286e8bad50f23
node stage3.5.m 4003 b6c82a1a2b559bf8
node stage3.drv 4003 8ad2024f1fd5c3af
node stage3.n0 4003 76df1553e081ed90
node stage3.n1 4003 7b6bbf159e192d1c
node stage3.n2 4003 f3dd9e2e9fc2f627
node stage3.n3 4003 51657b0beddcfb92
node stage3.n4 4003 f15d8e57201b38d8
node stage3.out 4003 a70c7b296321a0d4
fire 0x1.953c49109d8ep-34
fire 0x1.b136bc0c6f25fp-33
case symmetric_repbus_chain
steps 4004
lu 9
time 4005 ad35de6c2d656b13
node l0.d0 4005 2ef63e69243f8d41
node l0.d4 4005 4fbe0246d8befce7
node l0.d8 4005 0ca77ae2dbba7461
node l0.in 4005 cde8953c6b937723
node l0.n1 4005 1c72de412e180af2
node l0.n10 4005 73eea55455bc33d6
node l0.n11 4005 ee87fd75baa80da6
node l0.n12 4005 b49def6ea1cb32bd
node l0.n2 4005 dadbc5ffa4ad18ff
node l0.n3 4005 285178cc602b464f
node l0.n4 4005 d161bba63c09123f
node l0.n5 4005 8100563c1cca3e29
node l0.n6 4005 02ac1d38eccd0ce1
node l0.n7 4005 bc900f9b91683bd4
node l0.n8 4005 5695083eeb1503b7
node l0.n9 4005 ba07fa58dd88b110
node l0.s0.m 4005 c67a32e2385f56de
node l0.s1.m 4005 64279c3f51d37440
node l0.s10.m 4005 ff634be90929fd42
node l0.s11.m 4005 59ee37a8c5634a4e
node l0.s2.m 4005 79baa426ad2dc381
node l0.s3.m 4005 da802b76571ba213
node l0.s4.m 4005 3643cec5467df2a8
node l0.s5.m 4005 a442c02bc7d22611
node l0.s6.m 4005 f4421102e57628a5
node l0.s7.m 4005 7281393d285ba766
node l0.s8.m 4005 f4799324db545cfe
node l0.s9.m 4005 de640a7b57fe8ab4
node l1.d0 4005 097a0e8f5a217bbe
node l1.d4 4005 42fe7e6e1b081b37
node l1.d8 4005 05817ad17190b601
node l1.in 4005 cde8953c6b937723
node l1.n1 4005 676a3361513d8351
node l1.n10 4005 c1e605de9bf26136
node l1.n11 4005 04bc6fe8fa2fafd4
node l1.n12 4005 aff6f0f1978c57b1
node l1.n2 4005 81d1131f838c605a
node l1.n3 4005 3f3406d0c08be235
node l1.n4 4005 b210779363e2b042
node l1.n5 4005 bbda81f5aad5af58
node l1.n6 4005 d62938022ef4b97b
node l1.n7 4005 6a3d78e481019106
node l1.n8 4005 28109252624f2e14
node l1.n9 4005 336f57e718ddd0df
node l1.s0.m 4005 eb68802b6b157ac8
node l1.s1.m 4005 62b991c4e399eda6
node l1.s10.m 4005 68be06fef16cc581
node l1.s11.m 4005 6cc183b462779c03
node l1.s2.m 4005 90834297223fc9b7
node l1.s3.m 4005 54c09cc8fa2b0121
node l1.s4.m 4005 00e11656b0ff22d8
node l1.s5.m 4005 4a9dbccbdc899ba7
node l1.s6.m 4005 5d7d3d2ea3c27752
node l1.s7.m 4005 ba4167fdc3d4c01b
node l1.s8.m 4005 64afe41672cebb0c
node l1.s9.m 4005 b3eb5f95908f36c3
node l2.d0 4005 942969e0bb6e6300
node l2.d4 4005 b864f70421702760
node l2.d8 4005 7667ce3403812af7
node l2.in 4005 cde8953c6b937723
node l2.n1 4005 e29e1ed8caf6a6f0
node l2.n10 4005 6ac389ed3348c399
node l2.n11 4005 c44410861d6f9368
node l2.n12 4005 2da45704737be310
node l2.n2 4005 d2c1b708f6ac0c3f
node l2.n3 4005 f2d8832038d33245
node l2.n4 4005 e929c02b76357be5
node l2.n5 4005 a460572fff53c413
node l2.n6 4005 1e1fa78a44308559
node l2.n7 4005 97cf009dd0f3de24
node l2.n8 4005 f39440ca06e24f5e
node l2.n9 4005 2cd6489a368bfef9
node l2.s0.m 4005 605b67815da3cd21
node l2.s1.m 4005 f023a40dbfb9b181
node l2.s10.m 4005 318ec04db551cfc4
node l2.s11.m 4005 96d50d780e32cf53
node l2.s2.m 4005 935d78a25dc4da93
node l2.s3.m 4005 459f8db678b53b34
node l2.s4.m 4005 fd5c89ca36e428c0
node l2.s5.m 4005 b0dbf335ac885066
node l2.s6.m 4005 55210d973c5ed36c
node l2.s7.m 4005 a64d69b46c1a6ce6
node l2.s8.m 4005 e8501b6a9afe955f
node l2.s9.m 4005 ea9f5ec986c33e5f
fire 0x1.3819a286c212bp-34
fire 0x1.d443150349bcdp-33
fire 0x1.38797e93e09a3p-34
fire 0x1.d519855b322f8p-33
fire 0x1.3819a286c212bp-34
fire 0x1.d443150349bcdp-33
batch 1 batched
crossing 0x1.de95239880b84p-33
reuse hits 1 symbolic 2 ejected 0
batch 4 batched
crossing 0x1.de95239880b84p-33
crossing 0x1.000ebc8d3fa0ap-32
crossing 0x1.1129f009e6a4ap-32
crossing 0x1.229922a7e9717p-32
reuse hits 4 symbolic 2 ejected 0
batch 8 batched
crossing 0x1.de95239880b84p-33
crossing 0x1.000ebc8d3fa0ap-32
crossing 0x1.1129f009e6a4ap-32
crossing 0x1.229922a7e9717p-32
crossing 0x1.345b5462a40d4p-32
crossing 0x1.4670005101a3dp-32
crossing 0x1.58d74da19bd9dp-32
crossing 0x1.6b912fab8cc17p-32
reuse hits 10 symbolic 2 ejected 0
)golden";

class Listing {
 public:
  void line(const std::string& s) { text_ += s + "\n"; }
  void put(const std::string& tag, double v) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, " %a", v);
    line(tag + buffer);
  }
  void count(const std::string& tag, std::size_t v) {
    line(tag + " " + std::to_string(v));
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

std::string digest(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%zu %016llx", values.size(),
                static_cast<unsigned long long>(hash));
  return buffer;
}

void record_run(Listing& out, const std::string& name, const Circuit& circuit,
                const TransientOptions& options) {
  const TransientResult result = run_transient(circuit, options);
  out.line("case " + name);
  out.count("steps", result.steps_taken);
  out.count("lu", result.lu_factorizations);
  out.line("time " + digest(result.waveforms.time()));
  for (const std::string& node : result.waveforms.node_names())
    out.line("node " + node + " " + digest(result.waveforms.trace(node).value()));
  for (const double t : result.buffer_fire_times) out.put("fire", t);
}

void record_reuse(Listing& out, const SolverReuse& reuse) {
  out.line("reuse hits " + std::to_string(reuse.reuse_hits) + " symbolic " +
           std::to_string(reuse.symbolic_factorizations) + " ejected " +
           std::to_string(reuse.ejected_lanes));
}

Circuit rc_charger() {
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.1e-9, 0.0});
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  return c;
}

Circuit series_rlc() {
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 20e-12});
  c.add_resistor("in", "a", 20.0);
  c.add_inductor("a", "b", 5e-9);
  c.add_capacitor("b", "0", 1e-12);
  return c;
}

Circuit source_ladder() {
  Circuit c;
  c.add_voltage_source("in", "0",
                       PulseSpec{0.0, 1.0, 50e-12, 30e-12, 40e-12, 300e-12, 800e-12});
  c.add_resistor("in", "drv", 50.0);
  add_rlc_ladder(c, "line", "drv", "out", {200.0, 2e-9, 0.5e-12}, 8);
  c.add_capacitor("out", "0", 20e-15);
  PwlSpec pwl;
  pwl.points = {{0.0, 0.0}, {0.4e-9, 0.3}, {0.9e-9, -0.2}, {1.5e-9, 0.1}};
  c.add_voltage_source("aux", "0", pwl);
  c.add_resistor("aux", "line.n4", 500.0);
  c.add_current_source("0", "out", StepSpec{0.0, 1e-4, 0.7e-9, 0.1e-9});
  return c;
}

Circuit small_bus() {
  // The xtalk_small_transient shape: 3 lines x 6 segments, 63 unknowns.
  const tline::CoupledBus bus = tline::make_bus(3, {150.0, 3e-9, 0.6e-12}, 0.4, 0.3);
  return build_coupled_bus(
      bus, {BusDrive::kRising, BusDrive::kQuietLow, BusDrive::kFalling}, 60.0,
      15e-15, 6, 1.0, 10e-12);
}

Circuit ramped_repeater_chain() {
  // build_repeater_chain's topology with ramped (output_rise > 0) buffers.
  Circuit c;
  const tline::LineParams section{300.0, 2e-9, 0.4e-12};
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0}, "vsrc");
  c.add_resistor("in", "stage1.drv", 150.0, "rdrv");
  std::string prev = "stage1.out";
  add_rlc_ladder(c, "stage1", "stage1.drv", prev, section, 6);
  for (int k = 2; k <= 3; ++k) {
    const std::string tag = "stage" + std::to_string(k);
    c.add_switching_buffer(prev, tag + ".drv", 150.0, 10e-15, +1, 0.0, 1.0, 25e-12,
                           1.0, 0.5, tag + ".buf");
    add_rlc_ladder(c, tag, tag + ".drv", tag + ".out", section, 6);
    prev = tag + ".out";
  }
  c.add_capacitor(prev, "0", 10e-15, 0.0, "cload");
  return c;
}

tline::GateLineLoad gate_line(std::size_t lane) {
  const double scale = 1.0 + 0.15 * static_cast<double>(lane);
  return {100.0 * scale, {400.0, 4e-9 / scale, 0.8e-12}, 0.1e-12 * scale};
}

std::string current_listing() {
  Listing out;

  TransientOptions rc;
  rc.t_stop = 5e-9;
  record_run(out, "rc_trapezoidal", rc_charger(), rc);

  TransientOptions be;
  be.t_stop = 2e-9;
  be.dt = 2e-12;
  be.integrator = Integrator::kBackwardEuler;
  record_run(out, "rlc_backward_euler", series_rlc(), be);

  TransientOptions undamped = be;
  undamped.integrator = Integrator::kTrapezoidal;
  undamped.be_steps_after_breakpoint = 0;
  record_run(out, "rlc_no_be_damping", series_rlc(), undamped);

  TransientOptions sources;
  sources.t_stop = 3e-9;
  sources.dt = 5e-12;
  record_run(out, "pulse_pwl_current_ladder", source_ladder(), sources);

  TransientOptions bus;
  bus.t_stop = 1.5e-9;
  bus.dt = 2e-12;
  record_run(out, "bus_no_reuse", small_bus(), bus);
  SolverReuse bus_reuse;
  bus.reuse = &bus_reuse;
  record_run(out, "bus_seeding_reuse", small_bus(), bus);
  record_reuse(out, bus_reuse);
  record_run(out, "bus_replaying_reuse", small_bus(), bus);
  record_reuse(out, bus_reuse);

  RepeaterChainSpec chain;
  chain.line = {900.0, 6e-9, 1.2e-12};
  chain.sections = 3;
  chain.size = 20.0;
  chain.r0 = 3000.0;
  chain.c0 = 1e-15;
  chain.segments_per_section = 6;
  TransientOptions chain_options;
  chain_options.t_stop = 3e-9;
  record_run(out, "repeater_chain", build_repeater_chain(chain), chain_options);
  record_run(out, "ramped_repeater_chain", ramped_repeater_chain(), chain_options);

  repbus::RepeaterBusSpec repbus_spec;
  repbus_spec.bus = tline::make_bus(3, {600.0, 6e-9, 1e-12}, 0.3, 0.2);
  repbus_spec.sections = 3;
  repbus_spec.size = 20.0;
  repbus_spec.buffer = {3000.0, 2e-15, 1.0, 0.0};
  repbus_spec.segments_per_section = 4;
  const repbus::BusChainCircuit symmetric =
      repbus::build_bus_chain(repbus_spec, core::SwitchingPattern::kSamePhase);
  TransientOptions repbus_options;
  repbus_options.t_stop = 2e-9;
  record_run(out, "symmetric_repbus_chain", symmetric.circuit, repbus_options);

  // Batched crossings. The horizon is short enough that lanes 6 and 7
  // only cross after the auto-extension.
  std::vector<Circuit> circuits;
  for (std::size_t lane = 0; lane < 8; ++lane)
    circuits.push_back(build_gate_line_load(gate_line(lane), 5));
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SolverReuse reuse;
    TransientOptions options;
    options.t_stop = 0.3e-9;
    options.dt = 1e-12;
    options.reuse = &reuse;
    run_transient(circuits[0], options);  // seeds the recorded symbolics
    const std::vector<Circuit> tile(circuits.begin(),
                                    circuits.begin() + static_cast<std::ptrdiff_t>(width));
    const std::optional<std::vector<double>> crossings =
        run_batched_crossings(tile, "out", 0.5, options, "golden tile");
    out.line("batch " + std::to_string(width) +
             (crossings ? " batched" : " declined"));
    if (crossings)
      for (const double t : *crossings) out.put("crossing", t);
    record_reuse(out, reuse);
  }
  return out.text();
}

TEST(TransientGolden, RunTransientAndBatchedCrossingsMatchRecordedBits) {
  const std::string current = current_listing();
  std::istringstream want(kGolden), got(current);
  std::string a, b;
  int line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(want, a));
    const bool more_b = static_cast<bool>(std::getline(got, b));
    ++line;
    if (!more_a && !more_b) break;
    ASSERT_EQ(more_a, more_b) << "listing length differs at line " << line
                              << "\ncurrent listing:\n" << current;
    EXPECT_EQ(a, b) << "line " << line;
  }
}

}  // namespace
