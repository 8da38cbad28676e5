/**
 * @file
 * Indentation-aware structured text writer used to emit the generated
 * C++ (paper Fig. 7 style).
 */
#ifndef POLYMAGE_CODEGEN_WRITER_HPP
#define POLYMAGE_CODEGEN_WRITER_HPP

#include <sstream>
#include <string>

#include "support/diagnostics.hpp"

namespace polymage::cg {

/** Emits lines with automatic indentation and brace blocks. */
class CodeWriter
{
  public:
    /** Start at @p depth levels of indentation (a function body: 1). */
    explicit CodeWriter(int depth = 0) : depth_(depth) {}

    /** Append one line at the current indentation. */
    void
    line(const std::string &text)
    {
        indent();
        out_ << text << "\n";
    }

    /** Append a blank line. */
    void blank() { out_ << "\n"; }

    /** Open a block: emits "header {" and indents. */
    void
    open(const std::string &header)
    {
        indent();
        out_ << header << " {\n";
        ++depth_;
    }

    /** Close the innermost block. */
    void
    close(const std::string &suffix = "")
    {
        PM_ASSERT(depth_ > 0, "unbalanced block close");
        --depth_;
        indent();
        out_ << "}" << suffix << "\n";
    }

    std::string str() const { return out_.str(); }
    int depth() const { return depth_; }

  private:
    void
    indent()
    {
        for (int i = 0; i < depth_; ++i)
            out_ << "    ";
    }

    std::ostringstream out_;
    int depth_ = 0;
};

} // namespace polymage::cg

#endif // POLYMAGE_CODEGEN_WRITER_HPP
