// Whole-file read and write helpers for the lang-level readers and
// writers (lang/io.h), whose formats are the parser's surface syntax.
//
// All writes route through a park::Env (util/env.h) and are atomic
// (temp file + rename). Durable snapshots are ActiveDatabase::Checkpoint's
// (eca/active_database.h, docs/DURABILITY.md).

#ifndef PARK_STORAGE_IO_H_
#define PARK_STORAGE_IO_H_

#include <string>

#include "util/env.h"

namespace park {

/// Reads an entire file into a string. Shared helper for the lang-level
/// readers; returns kNotFound iff the file does not exist, and kInternal
/// for any other failure (permissions, path is a directory, read error).
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path` atomically (temp file + rename), without
/// an fsync.
Status WriteStringToFile(const std::string& contents,
                         const std::string& path);

}  // namespace park

#endif  // PARK_STORAGE_IO_H_
