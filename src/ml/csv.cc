#include "ml/csv.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hh"

namespace wanify {
namespace ml {

void
writeCsv(std::ostream &out, const Dataset &data,
         const std::vector<std::string> &featureNames)
{
    fatalIf(!featureNames.empty() &&
                featureNames.size() != data.featureCount(),
            "writeCsv: feature name count mismatch");

    for (std::size_t f = 0; f < data.featureCount(); ++f) {
        if (f > 0)
            out << ",";
        if (featureNames.empty())
            out << "f" << f;
        else
            out << featureNames[f];
    }
    for (std::size_t k = 0; k < data.outputCount(); ++k)
        out << ",y" << k;
    out << "\n";

    // max_digits10: doubles survive the write/parse round trip
    // exactly — scenario trace replay (scenario/trace.hh) depends on
    // CSV not quantizing multipliers.
    out.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto &x = data.x(i);
        const auto &y = data.y(i);
        for (std::size_t f = 0; f < x.size(); ++f) {
            if (f > 0)
                out << ",";
            out << x[f];
        }
        for (double v : y)
            out << "," << v;
        out << "\n";
    }
}

void
writeCsvFile(const std::string &path, const Dataset &data,
             const std::vector<std::string> &featureNames)
{
    std::ofstream out(path);
    fatalIf(!out, "writeCsvFile: cannot open " + path);
    writeCsv(out, data, featureNames);
    fatalIf(!out, "writeCsvFile: write failed for " + path);
}

Dataset
readCsv(std::istream &in)
{
    std::string header;
    fatalIf(!std::getline(in, header), "readCsv: missing header");

    // Columns whose names start with 'y' are targets.
    std::size_t features = 0, targets = 0;
    {
        std::stringstream ss(header);
        std::string name;
        bool inTargets = false;
        while (std::getline(ss, name, ',')) {
            if (!name.empty() && name[0] == 'y') {
                inTargets = true;
                ++targets;
            } else {
                fatalIf(inTargets,
                        "readCsv: feature column after targets");
                ++features;
            }
        }
    }
    fatalIf(features == 0 || targets == 0,
            "readCsv: need at least one feature and target column");

    Dataset data(features, targets);
    std::string line;
    std::size_t lineNo = 1;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::stringstream ss(line);
        std::string cell;
        std::vector<double> x, y;
        while (std::getline(ss, cell, ',')) {
            try {
                if (x.size() < features)
                    x.push_back(std::stod(cell));
                else
                    y.push_back(std::stod(cell));
            } catch (const std::exception &) {
                fatal("readCsv: bad number at line " +
                      std::to_string(lineNo));
            }
        }
        if (x.size() != features || y.size() != targets)
            fatal("readCsv: wrong column count at line " +
                  std::to_string(lineNo));
        data.add(std::move(x), std::move(y));
    }
    return data;
}

Dataset
readCsvFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "readCsvFile: cannot open " + path);
    return readCsv(in);
}

} // namespace ml
} // namespace wanify
