#include "model/binio.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/program_gen.hpp"
#include "model/assembler.hpp"
#include "model/printer.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "transform/pipeline.hpp"

namespace rafda::model {
namespace {

void expect_equal(const ClassPool& a, const ClassPool& b) {
    ASSERT_EQ(a.all_names(), b.all_names());
    for (const std::string& name : a.all_names()) {
        // print_class gives a total, human-readable structural comparison.
        EXPECT_EQ(print_class(a.get(name)), print_class(b.get(name))) << name;
    }
}

TEST(BinIo, RoundTripsHandWrittenPool) {
    ClassPool pool;
    assemble_into(pool, R"(
special class Thr {
  field msg S
}
interface Api {
  method f (JLC;)D
}
class C implements Api {
  field private x I
  static field final s S
  ctor (I)V {
    load 0
    load 1
    putfield C.x I
    return
  }
  method f (JLC;)D {
  S:
    const 1.5
    returnvalue
  E:
    nop
  H:
    pop
    const 0.0
    returnvalue
    catch Thr from S to E using H
  }
  native static method peek ()I
  abstract method todo ()V
}
)");
    ClassPool loaded = load_pool(save_pool(pool));
    expect_equal(pool, loaded);
}

class BinIoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinIoSweep, RoundTripsGeneratedAndTransformedPools) {
    corpus::ProgramParams params;
    params.seed = GetParam();
    params.classes = 3 + params.seed % 5;
    ClassPool pool = corpus::generate_program(params);
    expect_equal(pool, load_pool(save_pool(pool)));

    transform::PipelineResult result = transform::run_pipeline(pool);
    ClassPool loaded = load_pool(save_pool(result.pool));
    expect_equal(result.pool, loaded);
    // The loaded artefact is a complete program: it still verifies.
    EXPECT_TRUE(verify_pool_collect(loaded).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinIoSweep, ::testing::Range<std::uint64_t>(1, 9));

TEST(BinIo, RejectsBadMagic) {
    Bytes junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_THROW(load_pool(junk), CodecError);
}

TEST(BinIo, RejectsWrongVersion) {
    ClassPool pool;
    Bytes data = save_pool(pool);
    data[4] = 99;  // version lives after the 4-byte magic
    EXPECT_THROW(load_pool(data), CodecError);
}

TEST(BinIo, RejectsTruncation) {
    ClassPool pool;
    assemble_into(pool, "class A {\n field x I\n}\n");
    Bytes data = save_pool(pool);
    for (std::size_t cut : {data.size() - 1, data.size() / 2, std::size_t{7}}) {
        Bytes truncated(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_THROW(load_pool(truncated), CodecError) << "cut at " << cut;
    }
}

TEST(BinIo, RejectsTrailingBytes) {
    ClassPool pool;
    Bytes data = save_pool(pool);
    data.push_back(0);
    EXPECT_THROW(load_pool(data), CodecError);
}

TEST(BinIo, InstructionCountBeyondDataIsCodecError) {
    // Regression: a corrupt instruction count used to reach reserve() and
    // escape as std::bad_alloc; it must be rejected as a CodecError first.
    ClassPool pool;
    assemble_into(pool, "class A {\n method zz ()V {\n return\n }\n}\n");
    Bytes data = save_pool(pool);
    // name "zz", descriptor "()V", flags, visibility, max_locals, count.
    const Bytes head{2, 0, 0, 0, 'z', 'z', 3, 0, 0, 0, '(', ')', 'V'};
    const auto at = std::search(data.begin(), data.end(), head.begin(), head.end());
    ASSERT_NE(at, data.end());
    const auto count = at + static_cast<std::ptrdiff_t>(head.size() + 1 + 1 + 4);
    ASSERT_EQ(*count, 1u);  // the single `return`
    std::fill(count, count + 4, std::uint8_t{0xFF});
    EXPECT_THROW(load_pool(data), CodecError);
}

TEST(BinIo, EmptyPool) {
    ClassPool pool;
    ClassPool loaded = load_pool(save_pool(pool));
    EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace rafda::model
