//===- support/ArgParse.h - Tiny command line parsing ---------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately tiny --flag=value parser for the example and bench
/// binaries. Flags take the forms "--name=value", "--name value" or
/// bare "--name" for booleans. Unknown flags are fatal so typos in
/// experiment scripts fail loudly.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_ARGPARSE_H
#define RAP_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rap {

/// Declarative flag registry plus parsed values.
class ArgParse {
public:
  /// Creates a parser for a program named \p ProgramName (used in the
  /// usage message) described by \p Description.
  ArgParse(std::string Program, std::string Text);

  /// Registers a string flag with a default value.
  void addString(const std::string &Name, const std::string &Default,
                 const std::string &Help);

  /// Registers an unsigned integer flag with a default value.
  void addUint(const std::string &Name, uint64_t Default,
               const std::string &Help);

  /// Registers a double flag with a default value.
  void addDouble(const std::string &Name, double Default,
                 const std::string &Help);

  /// Registers a boolean flag (defaults to false).
  void addBool(const std::string &Name, const std::string &Help);

  /// Permits bare (non --flag) arguments, collected in order into
  /// positional(). \p Name and \p Help describe them in the usage
  /// message, e.g. ("paths", "files or directories to scan").
  void allowPositional(const std::string &Name, const std::string &Help);

  /// Parses \p Argv. On "--help" prints usage and returns false; on a
  /// malformed or unknown flag prints an error plus usage to stderr and
  /// returns false. Returns true when the program should proceed.
  [[nodiscard]] bool parse(int Argc, const char *const *Argv);

  /// Accessors; the flag must have been registered with matching type.
  const std::string &getString(const std::string &Name) const;
  uint64_t getUint(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  bool getBool(const std::string &Name) const;

  /// The bare arguments, in command line order. Empty unless
  /// allowPositional() was called before parse().
  const std::vector<std::string> &positional() const { return Positionals; }

private:
  enum class FlagKind { String, Uint, Double, Bool };

  struct Flag {
    FlagKind Kind;
    std::string Help;
    std::string StringValue;
    uint64_t UintValue = 0;
    double DoubleValue = 0.0;
    bool BoolValue = false;
  };

  void printUsage() const;
  const Flag &getFlag(const std::string &Name, FlagKind Kind) const;

  std::string ProgramName;
  std::string Description;
  std::map<std::string, Flag> Flags;
  std::vector<std::string> Order;
  bool PositionalsAllowed = false;
  std::string PositionalName;
  std::string PositionalHelp;
  std::vector<std::string> Positionals;
};

} // namespace rap

#endif // RAP_SUPPORT_ARGPARSE_H
